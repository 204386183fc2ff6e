package trace

// HookPostMortem, for the SIGQUIT handler test in package trace_test,
// wraps the running profile's stop with wrap and swaps the handler's
// process exit for exit; restore undoes both.
func HookPostMortem(wrap func(stop func()) func(), exit func(code int)) (restore func()) {
	post.mu.Lock()
	defer post.mu.Unlock()
	oldStop, oldExit := post.stopProf, post.exit
	post.stopProf, post.exit = wrap(oldStop), exit
	return func() {
		post.mu.Lock()
		post.stopProf, post.exit = oldStop, oldExit
		post.mu.Unlock()
	}
}
