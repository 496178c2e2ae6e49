package experiments

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"lapses/internal/core"
	"lapses/internal/stats"
)

// Record tables for each experiment, for external plotting: a header,
// then one record per point, each series named by the axis list its grid
// was built from. `lapses-experiments -csv` writes a table with one
// csv.Writer.WriteAll. Saturated points carry an empty latency cell and
// saturated=true so plotting scripts can clip the series the way the
// paper does ("results are only presented for loads leading up to
// network saturation").
//
// # Schema note: replications
//
// With `lapses-experiments -reps N` (N > 1), RunByName runs the
// experiment's grid once under each of N per-rep derived seeds (Seed +
// rep*1000003) and the table grows two trailing columns per replicated
// metric column: `<col>_mean` and `<col>_stderr` (standard error of the
// mean over the reps). The leading columns keep rep 0's values, the ones
// the rendered table shows, so single-rep parsers keep working
// unchanged; identifying columns that legitimately differ across reps
// (e.g. `fault_plan`, which is drawn from the seed) also show rep 0's
// draw. Cells empty in some reps (saturated points) are aggregated over
// the reps that produced a value, and left empty when none did. The
// metric columns replicated per experiment are the repCols of its row in
// the registry (experiments.go).

func latCell(r core.Result) string {
	if r.Saturated {
		return ""
	}
	return fixed(r.AvgLatency, 3)
}

func satCell(r core.Result) string { return strconv.FormatBool(r.Saturated) }

// fixed formats v with prec digits after the point.
func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// fig5Records has one record per (pattern, load, architecture).
func fig5Records(rows []Fig5Row) [][]string {
	recs := [][]string{{"pattern", "load", "architecture", "avg_latency", "saturated", "throughput"}}
	for _, r := range rows {
		for _, a := range fig5Archs {
			res := *a.Slot(&r)
			recs = append(recs, []string{
				r.Pattern.String(),
				fixed(r.Load, 2),
				a.Name,
				latCell(res),
				satCell(res),
				fixed(res.Throughput, 5),
			})
		}
	}
	return recs
}

// table3Records has one record per message length.
func table3Records(rows []Table3Row) [][]string {
	recs := [][]string{{"msg_len", "lookahead_latency", "no_lookahead_latency", "improvement_pct"}}
	for _, r := range rows {
		recs = append(recs, []string{
			strconv.Itoa(r.MsgLen),
			latCell(r.LookAhead),
			latCell(r.NoLookAhd),
			fixed(r.Improvement(), 2),
		})
	}
	return recs
}

// fig6Records has one record per (pattern, load, heuristic).
func fig6Records(rows []Fig6Row) [][]string {
	recs := [][]string{{"pattern", "load", "psh", "avg_latency", "saturated", "throughput"}}
	for _, r := range rows {
		for _, psh := range Fig6PSHs {
			res := r.ByPSH[psh]
			recs = append(recs, []string{
				r.Pattern.String(),
				fixed(r.Load, 2),
				psh.String(),
				latCell(res),
				satCell(res),
				fixed(res.Throughput, 5),
			})
		}
	}
	return recs
}

// table4Records has one record per (pattern, load, scheme).
func table4Records(rows []Table4Row) [][]string {
	recs := [][]string{{"pattern", "load", "scheme", "avg_latency", "saturated"}}
	for _, r := range rows {
		for _, s := range table4Schemes {
			res := *s.Slot(&r)
			recs = append(recs, []string{
				r.Pattern.String(),
				fixed(r.Load, 2),
				s.Name,
				latCell(res),
				satCell(res),
			})
		}
	}
	return recs
}

// repSeedStride derives replication seeds: rep i runs at Seed +
// i*repSeedStride. The stride is large and odd so derived seeds never
// collide across reps or with hand-picked neighboring seeds.
const repSeedStride = 1000003

// replicate aggregates an experiment's record tables, one per rep, into
// rep 0's table with a mean and a stderr column appended per column in
// cols. The cells are parsed back from their formatted text, so a mean
// is of the values the tables show.
func replicate(name string, reps [][][]string, cols []string) ([][]string, error) {
	header := reps[0][0]
	table := [][]string{slices.Clone(header)}
	colIdx := make([]int, 0, len(cols))
	for _, c := range cols {
		i := slices.Index(header, c)
		if i < 0 {
			return nil, fmt.Errorf("experiments: %q schema has no column %q", name, c)
		}
		colIdx = append(colIdx, i)
		table[0] = append(table[0], c+"_mean", c+"_stderr")
	}
	for row := 1; row < len(reps[0]); row++ {
		out := slices.Clone(reps[0][row])
		for _, ci := range colIdx {
			var s stats.Sample
			for rep, recs := range reps {
				cell := recs[row][ci]
				if cell == "" {
					continue // saturated in this rep
				}
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s row %d col %s rep %d: %w", name, row, header[ci], rep, err)
				}
				s.Add(v)
			}
			if s.N() == 0 {
				out = append(out, "", "")
				continue
			}
			stderr := s.StdDev() / math.Sqrt(float64(s.N()))
			out = append(out, fixed(s.Mean(), 4), fixed(stderr, 4))
		}
		table = append(table, out)
	}
	return table, nil
}
