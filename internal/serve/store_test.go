package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lapses/internal/core"
	"lapses/internal/fault"
	"lapses/internal/traffic"
)

// scripted returns a deterministic fake result derived from the config,
// so store round-trip tests can assert bit-identity without simulating.
func scripted(c core.Config) (core.Result, error) {
	return core.Result{
		AvgLatency:  12.5 + c.Load*100,
		NetLatency:  7.25,
		Throughput:  c.Load,
		Delivered:   1000 + c.Seed,
		TotalCycles: 5000,
		P99:         1.0 / 3.0, // a value whose decimal form is non-terminating
	}, nil
}

func storeConfig(seed int64) core.Config {
	c := core.DefaultConfig()
	c.Seed = seed
	return c
}

// TestStoreRoundTrip: a stored result is served back bit for bit, both
// within a process and across a reopen (the crash-survival property).
func TestStoreRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(1)
	var calls atomic.Int64
	run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }

	want, _ := scripted(cfg)
	res, cached, err := s.Do(context.Background(), cfg, run)
	if err != nil || cached || res != want {
		t.Fatalf("first Do: res=%+v cached=%v err=%v", res, cached, err)
	}
	res, cached, err = s.Do(context.Background(), cfg, run)
	if err != nil || !cached || res != want {
		t.Fatalf("second Do: res=%+v cached=%v err=%v", res, cached, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times, want 1", calls.Load())
	}

	// A fresh process opening the same directory serves from disk.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := s2.Stats().Entries; n != 1 {
		t.Fatalf("reopened store has %d entries, want 1", n)
	}
	res, cached, err = s2.Do(context.Background(), cfg, run)
	if err != nil || !cached || res != want {
		t.Fatalf("reopened Do: res=%+v cached=%v err=%v", res, cached, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("reopened store re-simulated: %d runner calls", calls.Load())
	}
	st := s2.Stats()
	if st.Entries != 1 || st.Hits != 1 || st.Quarantined != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreLargeEntries: entries longer than the reader's first buffer,
// and longer than the memo keeps, are read back whole, twice in one
// process and again after a reopen.
func TestStoreLargeEntries(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]core.Result{}
	// Entries of about 1.7, 2.7, 4.7 and 12.7 KiB around the 2 KiB first
	// read and the 4 KiB memo limit.
	for _, n := range []int{memoMaxEntry / 4, memoMaxEntry / 2, memoMaxEntry, 3 * memoMaxEntry} {
		r, _ := scripted(storeConfig(int64(n)))
		r.SatReason = strings.Repeat("x", n)
		key := fmt.Sprint("large-", n)
		if err := s.put(key, r); err != nil {
			t.Fatal(err)
		}
		want[key] = r
	}
	for _, reopen := range []bool{false, false, true} {
		if reopen {
			if s, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		for key, r := range want {
			if got, ok := s.Get(key); !ok || got != r {
				t.Fatalf("%s (reopened=%v): found=%v, SatReason of %d bytes", key, reopen, ok, len(got.SatReason))
			}
		}
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Entries != len(want) {
		t.Fatalf("stats: %+v", st)
	}
}

// sameBits reports whether two results are equal to the bit, NaN included.
func sameBits(a, b core.Result) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Interface() != fb.Interface() {
			return false
		}
	}
	return true
}

func indented(v any) ([]byte, error) { return json.MarshalIndent(v, "", "  ") }

// TestResultRoundTrip: core.Result's JSON form loses nothing. Walking the
// struct by reflection, so a field added to Result is covered or fails the
// test, every float field is set to each value a float64 has trouble with
// and every integer to its extremes; Result → JSON → Result, compact (as
// the store and the server write it) and indented (as servers before
// compact bodies did), and Store put → reopen → get must return the same
// bits. Finite
// results keep the bytes encoding/json gives a plain struct of their
// fields: a literal captured before Result had a codec, less the
// LatencyCI, MeasuredCycles and Converged members Result no longer has.
func TestResultRoundTrip(t *testing.T) {
	t.Parallel()
	var variants []core.Result
	for _, x := range []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, math.Copysign(0, -1), 1e21, 1e-6, 9.999999e-7, 1.0 / 3.0,
	} {
		for _, n := range []int64{math.MinInt64, math.MaxInt64} {
			var r core.Result
			v := reflect.ValueOf(&r).Elem()
			for i := 0; i < v.NumField(); i++ {
				switch f := v.Field(i); f.Kind() {
				case reflect.Float64:
					f.SetFloat(x)
				case reflect.Int64:
					f.SetInt(n)
				case reflect.Bool:
					f.SetBool(n > 0)
				case reflect.String:
					f.SetString("quote \" backslash \\ <html> & \u2028 é \x00 \n")
				default:
					t.Fatalf("Result.%s: no extreme values for a %s field; add them to this test", v.Type().Field(i).Name, f.Type())
				}
			}
			variants = append(variants, r)
		}
	}

	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range variants {
		for _, encode := range []func(any) ([]byte, error){json.Marshal, encodeJSON, indented} {
			data, err := encode(want)
			if err != nil {
				t.Fatalf("variant %d: %v", k, err)
			}
			var got core.Result
			if err := json.Unmarshal(data, &got); err != nil || !sameBits(got, want) {
				t.Errorf("variant %d through %s:\n got %+v (err=%v)\nwant %+v", k, data, got, err, want)
			}
		}
		if err := store.put(fmt.Sprint("variant-", k), want); err != nil {
			t.Fatalf("variant %d: %v", k, err)
		}
	}
	if store, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Entries != len(variants) || st.Quarantined != 0 {
		t.Fatalf("reopened store: %+v, want %d entries", st, len(variants))
	}
	for k, want := range variants {
		if got, ok := store.Get(fmt.Sprint("variant-", k)); !ok || !sameBits(got, want) {
			t.Errorf("variant %d from the reopened store: %+v (found=%v), want %+v", k, got, ok, want)
		}
	}

	finite := core.Result{
		AvgLatency: 123.456789, NetLatency: 98.7, CI95: 2.5e-7, P50: 100, P95: 1e21, P99: 123456789012345680000,
		AvgHops: 10.666666666666666, Throughput: 0.1, Delivered: 3000, Cycles: 12345, TotalCycles: 15000,
		SkippedCycles: 12, Saturated: true,
		SatReason: "latency > 5000 & \"guard\" <é>", DroppedFlits: 7, DroppedMessages: 1, ReconvergenceEpochs: 2,
		DeliveredFraction: 0.9996666666666667, RecoveryCycles: -1, Retransmits: 3, DupSuppressed: 4, Abandoned: 5,
	}
	const atParent = `{"AvgLatency":123.456789,"NetLatency":98.7,"CI95":2.5e-7,"P50":100,"P95":1e+21,"P99":123456789012345680000,"AvgHops":10.666666666666666,"Throughput":0.1,"Delivered":3000,"Cycles":12345,"TotalCycles":15000,"SkippedCycles":12,"Saturated":true,"SatReason":"latency \u003e 5000 \u0026 \"guard\" \u003cé\u003e","DroppedFlits":7,"DroppedMessages":1,"ReconvergenceEpochs":2,"DeliveredFraction":0.9996666666666667,"RecoveryCycles":-1,"Retransmits":3,"DupSuppressed":4,"Abandoned":5}`
	if got, err := json.Marshal(finite); err != nil || string(got) != atParent {
		t.Errorf("a finite result's bytes moved (err=%v):\n got %s\nwant %s", err, got, atParent)
	}

}

// TestStoreSkipsOtherVersions: an entry of another semantics version is
// never served. One the parent binary wrote, in the unversioned objects/
// root, is not even read: the store opens with nothing quarantined and
// nothing indexed, its config misses and re-simulates into objects/v<N>/,
// and the old file stays where it was. One checksummed under another
// version but placed in this version's directory is damage: quarantined,
// never served.
func TestStoreSkipsOtherVersions(t *testing.T) {
	t.Parallel()
	const (
		parentName   = "01cd6834723d4b0479440d74802640977454d874054b824b1db6789f88360c9d.json"
		parentKey    = "d[16 16],tfalse,v4,e1,b20,o4,l1,latrue,ctfalse,a2,tb1,s3,p1,ld3fe6666666666666,ml20,tr0x0,w100,m1000,mc7473,sl0,sd1,f[28-44;40-56;84-100;88-89;205-221;209-225;222-238;229-230]"
		parentResult = `{"AvgLatency":196.38938938938938,"NetLatency":196.34434434434434,"CI95":20.096560148443267,"P50":148.77984662056755,"P95":471.9548342649204,"P99":1616.8901924358843,"AvgHops":11.52952952952953,"Throughput":0.01289604676140119,"Delivered":999,"Cycles":6052,"TotalCycles":7473,"SkippedCycles":0,"MeasuredCycles":6052,"Converged":false,"LatencyCI":20.096560148443267,"Saturated":true,"SatReason":"cycle budget exhausted","DroppedFlits":0,"DroppedMessages":0,"ReconvergenceEpochs":0,"DeliveredFraction":0,"RecoveryCycles":0,"Retransmits":0,"DupSuppressed":0,"Abandoned":0}`
		parentEntry  = `{"key":"` + parentKey + `","sum":"b6bdf3c6726c49684984cf8bb93daf1e619b8e566c8a63aa3b0eb857ece8a951","result":` + parentResult + `}`
	)
	cfg := core.DefaultConfig()
	cfg.Pattern, cfg.Load, cfg.Warmup, cfg.Measure, cfg.MaxCycles = traffic.Transpose, 0.7, 100, 1000, 7473
	faults, err := fault.ParseSchedule(cfg.Mesh(), "28-44,40-56,84-100,88-89,205-221,209-225,222-238,229-230")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = faults

	dir := t.TempDir()
	parentPath := filepath.Join(dir, objectsDir, parentName)
	if err := os.MkdirAll(filepath.Dir(parentPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parentPath, []byte(parentEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Quarantined != 0 || st.Entries != 0 {
		t.Fatalf("a store the parent wrote opened with %+v, want 0 quarantined and 0 entries", st)
	}
	if _, ok := s.Get(cfg.Key()); ok {
		t.Fatal("the parent's entry was served")
	}
	var calls atomic.Int64
	res, cached, err := s.Do(context.Background(), cfg, func(c core.Config) (core.Result, error) {
		calls.Add(1)
		return core.Run(c)
	})
	if err != nil || cached || calls.Load() != 1 {
		t.Fatalf("Do: cached=%v calls=%d err=%v, want one simulation", cached, calls.Load(), err)
	}
	// The same answer, less the members Result no longer has.
	want := strings.NewReplacer(`"MeasuredCycles":6052,"Converged":false,`, "", `"LatencyCI":20.096560148443267,`, "").Replace(parentResult)
	if got, _ := json.Marshal(res); string(got) != want {
		t.Errorf("the re-simulated answer moved:\n got %s\nwant %s", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, versionDir, objName(cfg.Key()))); err != nil {
		t.Errorf("the re-simulated point is not under %s: %v", versionDir, err)
	}
	if raw, err := os.ReadFile(parentPath); err != nil || string(raw) != parentEntry {
		t.Errorf("the parent's entry was moved or changed (err=%v)", err)
	}

	// A well-formed entry of another version, in this version's directory:
	// found by the recovery scan, then by a read.
	plant := func(seed int64) string {
		c := storeConfig(seed)
		key := c.Key()
		stale, _ := scripted(c)
		payload, err := stale.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		raw := keyTag + key + sumTag + entrySum(core.SemanticsVersion+1, key, payload) + resultTag + string(payload) + "}"
		if err := os.WriteFile(filepath.Join(dir, versionDir, objName(key)), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return key
	}
	scanned := plant(9)
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 1 {
		t.Fatalf("reopened with another version's entry in %s: %+v, want it quarantined beside 1 entry", versionDir, st)
	}
	read := plant(10)
	for _, key := range []string{scanned, read} {
		if _, ok := s.Get(key); ok {
			t.Fatalf("another version's entry was served for %s", key)
		}
	}
	if st := s.Stats(); st.Quarantined != 2 {
		t.Fatalf("a read of another version's entry: %+v, want 2 quarantined", st)
	}
}

// corruptEntry finds the single object file in dir and mutates it.
func corruptEntry(t *testing.T, dir string, mutate func(path string, raw []byte)) {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, versionDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected exactly 1 object, found %d", len(ents))
	}
	path := filepath.Join(dir, versionDir, ents[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate(path, raw)
}

// TestStoreCorruptionDetection is the satellite-3 scenario: a stored
// result is damaged on disk (truncation, then a bit flip), the store is
// restarted, and the damage must be detected by checksum, the entry
// quarantined, and the point transparently re-simulated — never served
// corrupt.
func TestStoreCorruptionDetection(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		mutate func(path string, raw []byte)
	}{
		{"truncated", func(path string, raw []byte) {
			if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped", func(path string, raw []byte) {
			// Flip a bit inside the result payload, not the JSON framing:
			// the file stays parseable and only the checksum catches it.
			b := append([]byte(nil), raw...)
			for i := range b {
				if b[i] >= '1' && b[i] <= '8' {
					b[i]++
					break
				}
			}
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := storeConfig(7)
			if _, _, err := s.Do(context.Background(), cfg, scripted); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, dir, tc.mutate)

			// Restart: the recovery scan must quarantine the entry.
			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("restart over damaged store: %v", err)
			}
			st := s2.Stats()
			if st.Quarantined != 1 || st.Entries != 0 {
				t.Fatalf("after restart: %+v, want 1 quarantined, 0 entries", st)
			}
			q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantine dir: %v entries, err %v", len(q), err)
			}

			// The damaged point transparently re-simulates and heals.
			var calls atomic.Int64
			run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }
			want, _ := scripted(cfg)
			res, cached, err := s2.Do(context.Background(), cfg, run)
			if err != nil || cached || res != want || calls.Load() != 1 {
				t.Fatalf("re-simulation: res=%+v cached=%v err=%v calls=%d", res, cached, err, calls.Load())
			}
			res, cached, err = s2.Do(context.Background(), cfg, run)
			if err != nil || !cached || res != want {
				t.Fatalf("healed entry not served: cached=%v err=%v", cached, err)
			}
		})
	}
}

// TestStoreReadTimeCorruption: damage landing after Open (the entry is
// indexed) is caught at read time by the same checksum, quarantined,
// and re-simulated — a serving store never returns corrupt bits.
func TestStoreReadTimeCorruption(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(9)
	if _, _, err := s.Do(context.Background(), cfg, scripted); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, dir, func(path string, raw []byte) {
		if err := os.WriteFile(path, raw[:len(raw)-4], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	var calls atomic.Int64
	run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }
	want, _ := scripted(cfg)
	res, cached, err := s.Do(context.Background(), cfg, run)
	if err != nil || cached || res != want || calls.Load() != 1 {
		t.Fatalf("read-time recovery: res=%+v cached=%v err=%v calls=%d", res, cached, err, calls.Load())
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats after read-time quarantine: %+v", st)
	}

	// Damage after the store has read and accepted the entry: the memo
	// of accepted bytes must not hide it. Each case reads the entry
	// twice (the second read is served by the memo), then changes the
	// file under the same name.
	other := want
	other.AvgLatency, other.SatReason = 99.5, "another writer"
	otherEntry, err := encodeEntry(cfg.Key(), mustMarshal(t, other))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		rewrite func(raw []byte) []byte
		want    core.Result // the result served afterwards
		damaged bool        // quarantined and re-simulated
	}{
		{"flipped", func(raw []byte) []byte {
			b := bytes.Clone(raw)
			i := bytes.Index(b, []byte(resultTag)) + len(resultTag)
			b[i+bytes.IndexAny(b[i:], "12345678")]++ // a payload digit: only the checksum catches it
			return b
		}, want, true},
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)-4] }, want, true},
		{"rewritten", func([]byte) []byte { return otherEntry }, other, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.Do(context.Background(), cfg, scripted); err != nil {
				t.Fatal(err)
			}
			for read := 0; read < 2; read++ {
				if got, ok := s.Get(cfg.Key()); !ok || got != want {
					t.Fatalf("read %d of the intact entry: %+v, found=%v", read, got, ok)
				}
			}
			corruptEntry(t, dir, func(path string, raw []byte) {
				if err := os.WriteFile(path, tc.rewrite(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			})
			var calls atomic.Int64
			run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }
			var damage int64 // runner calls and quarantines the rewrite must cause
			if tc.damaged {
				damage = 1
			}
			res, cached, err := s.Do(context.Background(), cfg, run)
			if err != nil || res != tc.want || cached == tc.damaged || calls.Load() != damage {
				t.Fatalf("after the rewrite: res=%+v cached=%v err=%v calls=%d", res, cached, err, calls.Load())
			}
			if st := s.Stats(); st.Quarantined != damage {
				t.Fatalf("stats after the rewrite: %+v", st)
			}
			if payload, ok := s.getJSON(cfg.Key()); !ok || !bytes.Equal(payload, mustMarshal(t, tc.want)) {
				t.Fatalf("served payload %s (found=%v), want the result %+v", payload, ok, tc.want)
			}
		})
	}
}

func mustMarshal(t *testing.T, r core.Result) []byte {
	t.Helper()
	b, err := r.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreConcurrentHits: goroutines reading the same entries at once,
// through Get and getJSON, all get the stored bits, whether their read
// verified the bytes or found them in the memo.
func TestStoreConcurrentHits(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		key     string
		res     core.Result
		payload []byte
	}
	var ents []entry
	for seed := int64(1); seed <= 4; seed++ {
		c := storeConfig(seed)
		res, _, err := s.Do(context.Background(), c, scripted)
		if err != nil {
			t.Fatal(err)
		}
		ents = append(ents, entry{c.Key(), res, mustMarshal(t, res)})
	}
	const readers, rounds = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, e := range ents {
					if got, ok := s.Get(e.key); !ok || got != e.res {
						t.Errorf("reader %d: Get = %+v, found=%v", g, got, ok)
					}
					if payload, ok := s.getJSON(e.key); !ok || !bytes.Equal(payload, e.payload) {
						t.Errorf("reader %d: getJSON = %s, found=%v", g, payload, ok)
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Hits != 2*readers*rounds*int64(len(ents)) || st.Quarantined != 0 || st.Entries != len(ents) {
		t.Fatalf("stats: %+v", st)
	}
}

// TestStoreQuarantineLogsReason: a corrupt entry found at Open is logged
// with the reason it was set aside, so the quarantine count that /healthz
// reports can be explained. Not parallel: it redirects the process-wide
// logger.
func TestStoreQuarantineLogsReason(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), storeConfig(11), scripted); err != nil {
		t.Fatal(err)
	}
	var name string
	corruptEntry(t, dir, func(path string, raw []byte) {
		name = filepath.Base(path)
		b := append([]byte(nil), raw...)
		b[bytes.IndexAny(b, "12345678")]++ // the JSON stays parseable; only the checksum catches it
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	_, err = Open(dir)
	log.SetOutput(prev)
	if err != nil {
		t.Fatal(err)
	}
	if want := "store: quarantined " + name + ": checksum mismatch"; !strings.Contains(logged.String(), want) {
		t.Fatalf("log %q does not contain %q", logged.String(), want)
	}
}

// TestStoreTempFileCleanup: a temp file left by a crash mid-write is
// removed by the recovery scan and never treated as an entry, once it
// is older than any write; a fresh one, which may be another process's
// write in flight in a shared directory, is left alone.
func TestStoreTempFileCleanup(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, versionDir), 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, versionDir, objName("some-key")+".tmp17")
	if err := os.WriteFile(tmp, []byte(`{"key":"half-writ`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("a fresh temp file did not survive recovery: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Quarantined != 0 || st.OrphanTempsRemoved != 0 {
		t.Fatalf("fresh temp file touched by recovery: %+v", st)
	}

	old := time.Now().Add(-2 * staleTemp)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Entries != 0 {
		t.Fatalf("temp file counted as entry")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived recovery: %v", err)
	}
	if st := s.Stats(); st.Quarantined != 0 {
		t.Fatalf("temp cleanup counted as quarantine: %+v", st)
	}
	// The recovery scan's work is part of the store's health report.
	if st := s.Stats(); st.OrphanTempsRemoved != 1 || st.LastScan.IsZero() {
		t.Fatalf("recovery scan not surfaced in stats: %+v", st)
	}
}

// TestStoreSharedDirectory: two Store instances over one directory (a
// cluster coordinator and a worker, or two workers) see each other's
// writes — the second Do for a key another instance persisted is a disk
// hit, not a second simulation. This is the property that makes
// requeued cluster leases free for already-persisted points.
func TestStoreSharedDirectory(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(7)
	var calls atomic.Int64
	run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }

	want, _, err := s1.Do(context.Background(), cfg, run)
	if err != nil {
		t.Fatal(err)
	}
	// s2 has never seen this key in memory; it must find s1's write on
	// disk instead of simulating.
	got, cached, err := s2.Do(context.Background(), cfg, run)
	if err != nil || !cached || got != want {
		t.Fatalf("sibling write not found: res=%+v cached=%v err=%v", got, cached, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("runner ran %d times across the shared directory, want 1", calls.Load())
	}

	// Get reads through the same path without simulating.
	res, ok := s2.Get(cfg.Key())
	if !ok || res != want {
		t.Fatalf("Get(%s) = %+v ok=%v", cfg.Key(), res, ok)
	}
	// Ensure on an already-present key is a no-op (no duplicate write,
	// no error), and on a fresh key makes it durable.
	s2.Ensure(cfg.Key(), want)
	other := storeConfig(8)
	ores, _ := scripted(other)
	s2.Ensure(other.Key(), ores)
	if got, ok := s1.Get(other.Key()); !ok || got != ores {
		t.Fatalf("Ensure'd entry not visible to sibling: %+v ok=%v", got, ok)
	}
}

// TestStoreMisnamedEntry: a valid entry under the wrong filename (say,
// copied by hand) is quarantined — the content address must bind.
func TestStoreMisnamedEntry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Do(context.Background(), storeConfig(3), scripted); err != nil {
		t.Fatal(err)
	}
	corruptEntry(t, dir, func(path string, raw []byte) {
		os.Remove(path)
		wrong := filepath.Join(dir, versionDir, objName("some-other-key")+".json")
		if err := os.WriteFile(wrong, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Entries != 0 || st.Quarantined != 1 {
		t.Fatalf("misnamed entry not quarantined: %+v", st)
	}
}

// TestStoreUndecodableResult: an entry whose checksum matches but whose
// result is not a core.Result is quarantined, both by the recovery scan
// and by a read, and its point re-simulates.
func TestStoreUndecodableResult(t *testing.T) {
	t.Parallel()
	for name, payload := range map[string]string{"array": `[]`, "string-latency": `{"AvgLatency":"fast"}`} {
		for _, atOpen := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/atOpen=%v", name, atOpen), func(t *testing.T) {
				t.Parallel()
				dir := t.TempDir()
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				cfg := storeConfig(5)
				if _, _, err := s.Do(context.Background(), cfg, scripted); err != nil {
					t.Fatal(err)
				}
				key := cfg.Key()
				corruptEntry(t, dir, func(path string, _ []byte) {
					raw, err := json.Marshal(storeEntry{Key: key, Sum: entrySum(core.SemanticsVersion, key, []byte(payload)), Result: json.RawMessage(payload)})
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, raw, 0o644); err != nil {
						t.Fatal(err)
					}
				})
				if atOpen {
					if s, err = Open(dir); err != nil {
						t.Fatal(err)
					}
					if st := s.Stats(); st.Entries != 0 || st.Quarantined != 1 {
						t.Fatalf("after reopen: %+v, want 1 quarantined, 0 entries", st)
					}
				}
				var calls atomic.Int64
				run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }
				want, _ := scripted(cfg)
				res, cached, err := s.Do(context.Background(), cfg, run)
				if err != nil || cached || res != want || calls.Load() != 1 {
					t.Fatalf("re-simulation: res=%+v cached=%v err=%v calls=%d", res, cached, err, calls.Load())
				}
				if st := s.Stats(); st.Quarantined != 1 {
					t.Fatalf("stats: %+v, want 1 quarantined", st)
				}
			})
		}
	}
}

// TestStoreErrorsNotCached: a failed simulation is returned but never
// stored, so the next request retries it.
func TestStoreErrorsNotCached(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(5)
	var calls atomic.Int64
	boom := fmt.Errorf("boom")
	run := func(c core.Config) (core.Result, error) {
		if calls.Add(1) == 1 {
			return core.Result{}, boom
		}
		return scripted(c)
	}
	if _, _, err := s.Do(context.Background(), cfg, run); err != boom {
		t.Fatalf("first Do: err=%v, want boom", err)
	}
	if s.Stats().Entries != 0 {
		t.Fatal("failed point was stored")
	}
	want, _ := scripted(cfg)
	res, cached, err := s.Do(context.Background(), cfg, run)
	if err != nil || cached || res != want {
		t.Fatalf("retry after failure: res=%+v cached=%v err=%v", res, cached, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner calls %d, want 2", calls.Load())
	}
}

// TestStorePutFailure: a durable write that fails does not fail the
// point. Do returns the simulated result, not as a hit, the failure is
// counted, and nothing is stored, so the next Do simulates again. The
// first put's temp name is taken by a directory, so its O_EXCL create
// fails (a read-only directory would not do: the tests may run as root).
func TestStorePutFailure(t *testing.T) {
	t.Parallel()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := storeConfig(6)
	if err := os.Mkdir(filepath.Join(s.objs, objName(cfg.Key())+".tmp1"), 0o755); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := func(c core.Config) (core.Result, error) { calls.Add(1); return scripted(c) }
	want, _ := scripted(cfg)
	res, hit, err := s.Do(context.Background(), cfg, run)
	if err != nil || hit || res != want {
		t.Fatalf("Do with a failing put: res=%+v hit=%v err=%v, want the simulated result, no hit", res, hit, err)
	}
	if st := s.Stats(); st.PutFailures != 1 || st.Entries != 0 {
		t.Fatalf("stats after a failed put: %+v, want 1 put failure and no entry", st)
	}
	res, hit, err = s.Do(context.Background(), cfg, run)
	if err != nil || hit || res != want || calls.Load() != 2 {
		t.Fatalf("Do after a failed put: res=%+v hit=%v err=%v calls=%d, want a second simulation", res, hit, err, calls.Load())
	}
	if st := s.Stats(); st.PutFailures != 1 || st.Entries != 1 {
		t.Fatalf("stats after the second put: %+v, want the entry durable", st)
	}
}

// storeEntry is an entry as encoding/json reads it: the reference the
// store's one-pass reader is held to.
type storeEntry struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Result json.RawMessage `json:"result"`
}

// FuzzStoreEntry holds the store's one-pass entry reader to
// encoding/json. Whatever parseEntry accepts with a valid JSON payload,
// json.Unmarshal must read to the same key, sum and payload; whatever
// readEntry accepts has a valid JSON payload; a store reading the bytes
// from disk answers as readEntry does, twice; and every entry put lays
// out, for any key it accepts and a result carrying the input as a
// string, must be read back to the same key and payload.
func FuzzStoreEntry(f *testing.F) {
	key := storeConfig(1).Key()
	res, _ := scripted(storeConfig(1))
	res.CI95 = math.Inf(1)
	payload, err := res.MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	entry, err := encodeEntry(key, payload)
	if err != nil {
		f.Fatal(err)
	}
	sum := entrySum(core.SemanticsVersion, key, payload)
	for _, seed := range []string{
		string(entry),
		string(entry[:len(entry)/2]),
		strings.Replace(string(entry), "d[", `d\u005b`, 1),
		`{"sum":"` + sum + `","key":"` + key + `","result":` + string(payload) + `}`,
		`{"key": "` + key + `", "sum": "` + sum + `", "result": ` + string(payload) + " }\n",
		strings.Replace(string(entry), `"NetLatency":7.25`, `"NetLatency":7.5`, 1),
	} {
		f.Add([]byte(seed), key)
	}
	f.Add(entry, `quote " backslash \ <html> & é`)
	f.Add(entry, "\xff\x00")
	// Most fuzzed entries are quarantined, and a log line per input slows
	// fuzzing by two orders of magnitude. Fuzz targets run after every
	// test, so no test's log is lost.
	prev := log.Writer()
	log.SetOutput(io.Discard)
	f.Cleanup(func() { log.SetOutput(prev) })
	type file struct {
		name string // the key whose address the bytes are written to
		raw  []byte
	}
	f.Fuzz(func(t *testing.T, raw []byte, key string) {
		files := []file{{key, raw}}
		if k, sum, payload, err := parseEntry(raw); err == nil {
			if json.Valid(payload) {
				var ent storeEntry
				if err := json.Unmarshal(raw, &ent); err != nil {
					t.Fatalf("the reader accepts %q, which encoding/json refuses: %v", raw, err)
				}
				if ent.Key != string(k) || ent.Sum != string(sum) || !bytes.Equal(ent.Result, payload) {
					t.Fatalf("%q: the reader reads key %q, sum %q, result %s; encoding/json %q, %q, %s", raw, k, sum, payload, ent.Key, ent.Sum, ent.Result)
				}
			}
			files[0].name = string(k)
			// parseEntry leaves the payload's JSON to the decoder, so
			// readEntry must accept only valid JSON. The entry is summed
			// again (it is raw when raw's sum was right) so that a fuzzed
			// payload reaches the decoder.
			if summed, err := encodeEntry(string(k), payload); err == nil {
				if _, _, _, err := readEntry(summed); err == nil && !json.Valid(payload) {
					t.Fatalf("readEntry accepts %q, whose payload is not valid JSON", summed)
				}
				files = append([]file{{string(k), summed}}, files...)
			}
		}
		// Written as an entry file, the bytes get readEntry's verdict from
		// the store, on the first read and on the repeat, which the memo
		// serves when the first accepted them. The re-summed entry is
		// written first, so raw is read where other bytes under the same
		// name were just accepted.
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, fl := range files {
			k, p, r, verr := readEntry(fl.raw)
			ok := verr == nil && k == fl.name
			for read := 1; read <= 2; read++ {
				if err := os.WriteFile(filepath.Join(dir, versionDir, objName(fl.name)), fl.raw, 0o644); err != nil {
					t.Fatal(err)
				}
				got, gotPayload, found := s.lookup(fl.name)
				if found != ok || ok && (!bytes.Equal(gotPayload, p) || !sameBits(got, r)) {
					t.Fatalf("read %d of %q as key %q: lookup found=%v, result %+v, payload %s; readEntry key %q, err=%v, result %+v, payload %s",
						read, fl.raw, fl.name, found, got, gotPayload, k, verr, r, p)
				}
			}
		}
		r := res
		r.SatReason = string(raw)
		payload, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		data, err := encodeEntry(key, payload)
		if err != nil {
			return // put refuses the key: no such entry is ever written
		}
		got, gotPayload, _, err := readEntry(data)
		if err != nil || got != key || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("put's entry for key %q is read as key %q, result %s (err=%v), want result %s", key, got, gotPayload, err, payload)
		}
	})
}
