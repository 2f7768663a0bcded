//go:build unix

package vdisk

import "syscall"

// mapMem returns n zeroed bytes from an anonymous private mapping: memory the
// collector neither scans nor counts toward its heap goal.
func mapMem(n int) ([]byte, error) {
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
}

// unmapMem hands a mapping from mapMem back to the OS.
func unmapMem(b []byte) error { return syscall.Munmap(b) }
