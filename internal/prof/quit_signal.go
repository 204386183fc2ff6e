//go:build !plan9

package prof

import (
	"os"
	"syscall"
)

// quitSignal is the signal InstallDumpHandler catches.
var quitSignal os.Signal = syscall.SIGQUIT
