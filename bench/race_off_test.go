//go:build !race

package main

// raceBuild reports whether the race detector is compiled in.
const raceBuild = false
