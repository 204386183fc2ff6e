package trace

import "os"

// quitSignal is nil on Plan 9, which has no SIGQUIT: installHandler
// installs nothing there.
var quitSignal os.Signal
