//go:build !amd64

package hostcpu

// AVX2 is false off amd64.
const AVX2 = false

// AVX512 is false off amd64.
const AVX512 = false
