//go:build !race

package server

// raceBuild reports a -race build (see race_test.go).
const raceBuild = false
