//go:build !plan9

package trace

import (
	"os"
	"syscall"
)

// quitSignal is the signal the post-mortem handler catches.
var quitSignal os.Signal = syscall.SIGQUIT
