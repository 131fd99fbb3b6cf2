package minjs

// UseOracle switches every program run and script-function call in the
// process onto the reference tree-walker (on) or back onto the bytecode VM
// (off). It exists for differential tests, including the external test
// package that records whole crawls on both engines; callers must not run
// interpreters concurrently with a switch.
func UseOracle(on bool) {
	if on {
		oracle = treeWalker{}
	} else {
		oracle = nil
	}
}
