// Command second is the fixture's second module: its only call makes
// a.SecondOnly a production caller's target.
package main

import "fix/internal/a"

func main() { a.SecondOnly() }
