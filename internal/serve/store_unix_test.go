//go:build unix

package serve

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// scarceChildEnv names the store directory to the child process of
// TestStoreScarceDescriptors; it is set only in that child.
const scarceChildEnv = "LAPSES_TEST_SCARCE_STORE"

// TestStoreScarceDescriptors: a read that fails because the process has
// no descriptor left says nothing about the entry. A lookup is a plain
// miss that leaves the file and the index alone, so the entry is served
// once descriptors are back, and Open fails instead of quarantining. The
// starved reads run in a child process that lowers its own RLIMIT_NOFILE,
// so this process's parallel tests keep their descriptors.
func TestStoreScarceDescriptors(t *testing.T) {
	if dir := os.Getenv(scarceChildEnv); dir != "" {
		scarceChild(t, dir)
		return
	}
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), storeConfig(21), scripted); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStoreScarceDescriptors$", "-test.v")
	cmd.Env = append(os.Environ(), scarceChildEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if q, err := os.ReadDir(filepath.Join(dir, quarantineDir)); err != nil || len(q) != 0 {
		t.Fatalf("quarantine holds %d entries (err %v), want none", len(q), err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Quarantined != 0 {
		t.Fatalf("reopened after the starved reads: %+v", st)
	}
}

func scarceChild(t *testing.T, dir string) {
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(21)
	want, _ := scripted(cfg)
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	// An os.File starts the runtime's poller, which needs descriptors of
	// its own, before the limit leaves none.
	f, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// The lowest free descriptor: every one below it is open, so a soft
	// limit of it leaves none to open.
	fd, err := syscall.Open(os.DevNull, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	syscall.Close(fd)
	starved := lim
	setLimit(&starved.Cur, fd)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &starved); err != nil {
		t.Fatal(err)
	}
	_, hit := s.Get(cfg.Key())
	_, openErr := Open(dir)
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("a read with no descriptor to open was a hit")
	}
	if !errors.Is(openErr, syscall.EMFILE) {
		t.Fatalf("Open with no descriptor to open: err = %v, want EMFILE", openErr)
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Entries != 1 {
		t.Fatalf("after the starved read: %+v, want 1 entry, 0 quarantined", st)
	}
	if got, ok := s.Get(cfg.Key()); !ok || got != want {
		t.Fatalf("with descriptors back: %+v, found=%v", got, ok)
	}
}

// setLimit sets an Rlimit field, uint64 on most systems and int64 on
// some BSDs.
func setLimit[T int64 | uint64](field *T, n int) { *field = T(n) }
