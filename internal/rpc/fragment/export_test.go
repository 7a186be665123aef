package fragment

// SetTestHookPassiveOpen installs f between building a passive session
// and binding it, and returns the function that removes it.
func SetTestHookPassiveOpen(f func()) (restore func()) {
	testHookPassiveOpen = f
	return func() { testHookPassiveOpen = nil }
}
