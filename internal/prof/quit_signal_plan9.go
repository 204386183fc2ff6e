package prof

import "os"

// quitSignal is nil on Plan 9, which has no SIGQUIT: InstallDumpHandler
// installs nothing there.
var quitSignal os.Signal
