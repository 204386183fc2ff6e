//go:build !unix

package grid

import "os"

// readEntry appends the whole file at p to buf.
func readEntry(p string, buf []byte) ([]byte, error) {
	b, err := os.ReadFile(p)
	return append(buf, b...), err
}
