package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"lapses/internal/core"
)

// goldenDigests maps each core.SemanticsVersion to the goldenDigest of
// the fixtures it was released with. A row is only ever added: the bump
// procedure (README, "Semantics versions") regenerates the goldens,
// bumps the version, and adds the row TestGoldenDigests prints.
var goldenDigests = map[int]string{
	1: "0cdb8165efa664417817dbce011d1b3275be2a18ff6c65f370db280c73800f75",
	2: "5269b597e646e9a29d20412f6c0d053a2324dc61bafaf38be44ddbc47d90ba04",
	3: "5269b597e646e9a29d20412f6c0d053a2324dc61bafaf38be44ddbc47d90ba04",
}

// goldenDigest is the SHA-256 over every testdata/golden_*.txt, in name
// order, each as its name, a NUL, its bytes and a NUL.
func goldenDigest(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "golden_*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden fixtures (err=%v)", err)
	}
	h := sha256.New()
	for _, f := range files { // Glob sorts
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(filepath.Base(f) + "\x00"))
		h.Write(append(raw, 0))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests ties the golden fixtures to the semantics version: a
// golden regenerated without a bump fails here, because stored answers of
// the old semantics would otherwise be served as answers of the new one.
func TestGoldenDigests(t *testing.T) {
	t.Parallel()
	v, got := core.SemanticsVersion, goldenDigest(t)
	want, ok := goldenDigests[v]
	switch {
	case !ok:
		t.Fatalf("SemanticsVersion %d has no golden digest; add the row\n\t%d: %q,", v, v, got)
	case got != want:
		t.Fatalf("the golden fixtures changed under SemanticsVersion %d (digest %s, recorded %s): answers moved, so bump SemanticsVersion to %d and add the row\n\t%d: %q,",
			v, got, want, v+1, v+1, got)
	}
}
