//go:build race

package inference

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
