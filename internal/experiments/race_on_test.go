//go:build race

package experiments

// raceBuild reports whether the race detector is compiled in.
const raceBuild = true
