package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"lapses/internal/core"
)

func TestTable1Survey(t *testing.T) {
	rows := Table1()
	if len(rows) != 9 {
		t.Fatalf("rows = %d want 9 (the paper lists nine routers)", len(rows))
	}
	adaptive := 0
	for _, r := range rows {
		if strings.Contains(r.Routing, "Adpt") {
			adaptive++
		}
	}
	// The paper's point: only a minority support (even limited)
	// adaptivity.
	if adaptive != 4 {
		t.Errorf("adaptive-capable routers = %d want 4", adaptive)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	for _, want := range []string{"SGI SPIDER", "Cray T3E", "Inmos C-104"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2RendersDefaults(t *testing.T) {
	var buf bytes.Buffer
	RenderTable2(&buf, core.DefaultConfig())
	out := buf.String()
	for _, want := range []string{"256 nodes", "20 flits", "VCs per PC", "4", "5 units (PROUD)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunByNameReference(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"table1", "table2"} {
		if _, err := (Runner{Fidelity: Quick, Seed: 1}).RunByName(context.Background(), &buf, name, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
