//go:build race

package repro

// raceBuild reports a -race build, whose compiler builds a slices.Grow
// as two allocations: allocation gates read their race bounds.
const raceBuild = true
