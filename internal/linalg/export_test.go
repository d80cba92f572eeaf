package linalg

import "testing"

// KernelSetNames lists the kernel sets this machine runs, the portable
// "go" set first, for tests outside the package.
func KernelSetNames() []string {
	var names []string
	for _, l := range leaves() {
		names = append(names, l.name)
	}
	return names
}

// UseKernelSet makes the named set the one every kernel call uses until
// t's cleanup restores the set in use before. The set is package state,
// so a test that calls it must not run in parallel with any other.
func UseKernelSet(t testing.TB, name string) {
	for _, l := range leaves() {
		if l.name == name {
			prev := kernels
			kernels = l.set
			t.Cleanup(func() { kernels = prev })
			return
		}
	}
	t.Fatalf("kernel set %q does not run on this machine", name)
}
