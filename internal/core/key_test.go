package core

import (
	"testing"

	"lapses/internal/table"
)

// TestKeyCanonical: configs that provably produce one Result share one
// key, and configs that may not keep their own. es, full and interval
// tables program the same routes under one algorithm. The meta kinds route
// by their own mappings, so es, meta-row and meta-block stay three keys.
func TestKeyCanonical(t *testing.T) {
	t.Parallel()
	base := DefaultConfig()
	base.Dims = []int{8, 8}
	with := func(set func(*Config)) string {
		c := base
		set(&c)
		return c.Key()
	}
	for _, alg := range []Alg{AlgXY, AlgDuato} {
		es := with(func(c *Config) { c.Algorithm, c.Table = alg, table.KindES })
		for _, k := range []table.Kind{table.KindFull, table.KindInterval} {
			if got := with(func(c *Config) { c.Algorithm, c.Table = alg, k }); got != es {
				t.Errorf("%s under %s keys apart from es:\n%s\n%s", k, alg, got, es)
			}
		}
		keys := map[string]table.Kind{}
		for _, k := range []table.Kind{table.KindES, table.KindMetaRow, table.KindMetaBlock} {
			keys[with(func(c *Config) { c.Algorithm, c.Table = alg, k })] = k
		}
		if len(keys) != 3 {
			t.Errorf("es, meta-row and meta-block under %s give %d keys, want 3", alg, len(keys))
		}
	}
	// The structure cache reads the same classes.
	es, full := base, base
	full.Table = table.KindFull
	if es.structureKey() != full.structureKey() {
		t.Errorf("es and full structures key apart:\n%s\n%s", es.structureKey(), full.structureKey())
	}
}
