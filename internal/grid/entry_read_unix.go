//go:build unix

package grid

import "syscall"

// readEntry appends the whole file at p to buf with one open, reads until
// a read returns no bytes, and one close, so a warm entry costs four
// system calls; os.ReadFile adds an fstat, a poller registration and an
// *os.File. A short read is not the end of the file: stopping there would
// cut the body off, fail its CRC and quarantine a good entry. The
// returned slice is buf, grown as needed, on every path.
func readEntry(p string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(p, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return buf, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
