//go:build !unix

package serve

import "os"

// readFile reads the whole file at path. The four-call reader is
// Unix-only; elsewhere it is os.ReadFile.
func readFile(path string) ([]byte, error) { return os.ReadFile(path) }

// scarce reports whether err is the process short of a resource. Only
// Unix reads are told apart this way; elsewhere a failed read of an
// existing entry quarantines it.
func scarce(error) bool { return false }
