package a

// callsTestOnly is TestOnly's one caller, in a test file.
func callsTestOnly() { TestOnly() }
