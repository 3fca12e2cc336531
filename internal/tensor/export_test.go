package tensor

// SIMDAvailable reports whether this host has the vector kernels.
var SIMDAvailable = useSIMD

// SetSIMD switches the vector kernels on or off for this package's external
// tests and benchmarks and returns the previous setting. Asking for them on
// a host that has none leaves them off.
func SetSIMD(on bool) (prev bool) {
	prev = useSIMD
	useSIMD = on && SIMDAvailable
	return prev
}
