package experiments

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/stats"
)

// CSV writers for each experiment, for external plotting. Saturated points
// carry an empty latency cell and saturated=true so plotting scripts can
// clip the series the way the paper does ("results are only presented for
// loads leading up to network saturation").
//
// # Schema note: replications
//
// With `lapses-experiments -reps N` (N > 1), WriteCSVReps replays the
// experiment N times under per-rep derived seeds (Seed + rep*1000003)
// and the CSV grows two trailing columns per replicated metric column:
// `<col>_mean` and `<col>_stderr` (standard error of the mean over the
// reps). The leading columns keep rep 0's values, so single-rep parsers
// keep working unchanged; identifying columns that legitimately differ
// across reps (e.g. `fault_plan`, which is drawn from the seed) also
// show rep 0's draw. Cells empty in some reps (saturated points) are
// aggregated over the reps that produced a value, and left empty when
// none did. The metric columns replicated per experiment are the repCols of
// its row in the registry (experiments.go).

func latCell(r core.Result) string {
	if r.Saturated {
		return ""
	}
	return strconv.FormatFloat(r.AvgLatency, 'f', 3, 64)
}

func satCell(r core.Result) string { return strconv.FormatBool(r.Saturated) }

// Fig5CSV writes one row per (pattern, load, architecture).
func Fig5CSV(w io.Writer, rows []Fig5Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pattern", "load", "architecture", "avg_latency", "saturated", "throughput"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, a := range []struct {
			name string
			res  core.Result
		}{
			{"nola-det", r.NoLADet}, {"nola-adapt", r.NoLAAdapt}, {"la-det", r.LADet}, {"la-adapt", r.LAAdapt},
		} {
			rec := []string{
				r.Pattern.String(),
				strconv.FormatFloat(r.Load, 'f', 2, 64),
				a.name,
				latCell(a.res),
				satCell(a.res),
				strconv.FormatFloat(a.res.Throughput, 'f', 5, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table3CSV writes one row per message length.
func Table3CSV(w io.Writer, rows []Table3Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"msg_len", "lookahead_latency", "no_lookahead_latency", "improvement_pct"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			strconv.Itoa(r.MsgLen),
			latCell(r.LookAhead),
			latCell(r.NoLookAhd),
			strconv.FormatFloat(r.Improvement(), 'f', 2, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fig6CSV writes one row per (pattern, load, heuristic).
func Fig6CSV(w io.Writer, rows []Fig6Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pattern", "load", "psh", "avg_latency", "saturated", "throughput"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, psh := range Fig6PSHs {
			res := r.ByPSH[psh]
			rec := []string{
				r.Pattern.String(),
				strconv.FormatFloat(r.Load, 'f', 2, 64),
				psh.String(),
				latCell(res),
				satCell(res),
				strconv.FormatFloat(res.Throughput, 'f', 5, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Table4CSV writes one row per (pattern, load, scheme).
func Table4CSV(w io.Writer, rows []Table4Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"pattern", "load", "scheme", "avg_latency", "saturated"}); err != nil {
		return err
	}
	for _, r := range rows {
		for _, s := range []struct {
			name string
			res  core.Result
		}{
			{"meta-adaptive", r.MetaAdaptive}, {"meta-det", r.MetaDet}, {"full", r.Full}, {"es", r.ES},
		} {
			rec := []string{
				r.Pattern.String(),
				strconv.FormatFloat(r.Load, 'f', 2, 64),
				s.name,
				latCell(s.res),
				satCell(s.res),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV runs an experiment through the sweep engine and writes its CSV
// form; table5 and the reference tables have no CSV representation. With
// a shared Runner.Cache the render and CSV passes of the same experiment
// simulate their grid only once.
func (r Runner) WriteCSV(ctx context.Context, w io.Writer, name string) error {
	e, err := findCSV(name)
	if err != nil {
		return err
	}
	return e.csv(ctx, r, w)
}

// repSeedStride derives replication seeds: rep i runs at Seed +
// i*repSeedStride. The stride is large and odd so derived seeds never
// collide across reps or with hand-picked neighboring seeds.
const repSeedStride = 1000003

// WriteCSVReps writes the experiment's CSV aggregated over reps
// replications with per-rep derived seeds; reps <= 1 is WriteCSV. Each
// replication runs the full experiment (sharing Runner.Cache, so points
// identical across reps — there are none, since the seed differs — and
// within one rep still memoize); the output schema is rep 0's rows plus
// mean/stderr columns for the experiment's metric columns.
func (r Runner) WriteCSVReps(ctx context.Context, w io.Writer, name string, reps int) error {
	if reps <= 1 {
		return r.WriteCSV(ctx, w, name)
	}
	e, err := findCSV(name)
	if err != nil {
		return err
	}
	cols := e.repCols
	recs := make([][][]string, reps)
	for rep := 0; rep < reps; rep++ {
		rr := r
		rr.Seed = r.Seed + int64(rep)*repSeedStride
		var buf bytes.Buffer
		if err := e.csv(ctx, rr, &buf); err != nil {
			return fmt.Errorf("experiments: rep %d: %w", rep, err)
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			return fmt.Errorf("experiments: rep %d csv: %w", rep, err)
		}
		if rep > 0 && len(rows) != len(recs[0]) {
			return fmt.Errorf("experiments: rep %d produced %d rows, rep 0 produced %d", rep, len(rows), len(recs[0]))
		}
		recs[rep] = rows
	}
	header := recs[0][0]
	colIdx := make([]int, 0, len(cols))
	for _, c := range cols {
		found := -1
		for i, h := range header {
			if h == c {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("experiments: %q schema has no column %q", name, c)
		}
		colIdx = append(colIdx, found)
	}
	cw := csv.NewWriter(w)
	out := append([]string{}, header...)
	for _, c := range cols {
		out = append(out, c+"_mean", c+"_stderr")
	}
	if err := cw.Write(out); err != nil {
		return err
	}
	for row := 1; row < len(recs[0]); row++ {
		out = append([]string{}, recs[0][row]...)
		for _, ci := range colIdx {
			var s stats.Sample
			for rep := 0; rep < reps; rep++ {
				cell := recs[rep][row][ci]
				if cell == "" {
					continue // saturated in this rep
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return fmt.Errorf("experiments: %s row %d col %s rep %d: %w", name, row, header[ci], rep, err)
				}
				s.Add(v)
			}
			if s.N() == 0 {
				out = append(out, "", "")
				continue
			}
			stderr := s.StdDev() / math.Sqrt(float64(s.N()))
			out = append(out,
				strconv.FormatFloat(s.Mean(), 'f', 4, 64),
				strconv.FormatFloat(stderr, 'f', 4, 64))
		}
		if err := cw.Write(out); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
