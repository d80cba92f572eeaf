//go:build !amd64

package linalg

// vectorLeaves lists the vector sets this architecture has: none.
func vectorLeaves() []leaf { return nil }
