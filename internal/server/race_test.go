//go:build race

package server

// raceBuild reports a -race build. Its sync.Pool drops a share of what
// is put back (fmt's printers among them) and its compiler builds a
// slices.Grow as two allocations, so allocation gates read their race
// bounds.
const raceBuild = true
