//go:build !race

package repro

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
