// Package bufpool stubs the production buffer pool at its real import
// path, so the noalloc analyzer's trusted-table matching is exercised
// exactly as in the main module.
package bufpool

// Get rents a buffer of length n.
func Get(n int) []byte { return make([]byte, n) }

// GetZero rents a zeroed buffer of length n.
func GetZero(n int) []byte { return make([]byte, n) }

// Put returns a rented buffer to the pool.
func Put(b []byte) {}

// InFlight reports the bytes currently rented.
func InFlight() int64 { return 0 }
