//go:build !unix

package vdisk

// mapMem falls back to the Go heap where there is no anonymous mmap.
func mapMem(n int) ([]byte, error) { return make([]byte, n), nil }

// unmapMem leaves the bytes to the collector.
func unmapMem([]byte) error { return nil }
