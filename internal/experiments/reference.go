package experiments

import (
	"fmt"
	"io"

	"lapses/internal/core"
)

// Table1Row is one commercial router of the paper's Table 1 survey,
// reproduced as reference data: the design space the LAPSES techniques
// target (table-based, pipelined, virtual-channel wormhole routers).
type Table1Row struct {
	Router   string
	RTable   bool
	Design   string
	MaxNodes string
	Ports    int
	VCs      string
	PortType string
	Routing  string
}

// Table1 returns the paper's survey of state-of-the-art commercial
// wormhole and virtual cut-through routers (HPCA 1999 vintage).
func Table1() []Table1Row {
	return []Table1Row{
		{"SGI SPIDER", true, "ASIC", "512", 6, "4", "P", "Det"},
		{"Cray T3D", true, "ASIC", "2K", 7, "4", "P", "Det"},
		{"Cray T3E", true, "ASIC", "2176", 7, "5", "P", "Adpt"},
		{"Tandem Servernet-II", true, "ASIC", "1M", 12, "No", "P", "Lim. Adpt"},
		{"Sun S3.mp", true, "ASIC", "1K", 6, "4", "2P+4S", "Adpt"},
		{"Intel Cavallino", false, "Custom", ">4K", 6, "4", "P", "Det"},
		{"HAL Mercury", false, "Custom", "64", 6, "3", "P", "Det"},
		{"Inmos C-104", true, "Custom", "Any", 32, "Any", "S", "Lim. Adpt"},
		{"Myricom Myrinet", false, "Custom", "Any", 8, "No", "P", "Det"},
	}
}

// RenderTable1 prints the survey in the paper's format.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: commercial wormhole / virtual cut-through routers (survey, 1999)")
	fmt.Fprintf(w, "%-20s %-6s %-7s %-9s %-6s %-5s %-9s %-10s\n",
		"Router", "R-Tbl", "Design", "MaxNodes", "Ports", "VCs", "PortType", "Routing")
	for _, r := range rows {
		rt := "N"
		if r.RTable {
			rt = "Y"
		}
		fmt.Fprintf(w, "%-20s %-6s %-7s %-9s %-6d %-5s %-9s %-10s\n",
			r.Router, rt, r.Design, r.MaxNodes, r.Ports, r.VCs, r.PortType, r.Routing)
	}
}

// RenderTable2 prints the simulation parameters actually in force — the
// paper's Table 2 — derived from a Config rather than hard-coded, so any
// drift between documentation and defaults is impossible.
func RenderTable2(w io.Writer, c core.Config) {
	fmt.Fprintln(w, "Table 2: simulation parameters")
	fmt.Fprintf(w, "%-28s %v nodes %s\n", "Mesh Network Size", c.Mesh().N(), c.Mesh())
	fmt.Fprintf(w, "%-28s %d flits\n", "Message Length", c.MsgLen)
	fmt.Fprintf(w, "%-28s exponential\n", "Inter-arrival time")
	fmt.Fprintf(w, "%-28s uniform, transpose, shuffle, bit-reversal\n", "Traffic")
	fmt.Fprintf(w, "%-28s %d flits\n", "In/Out Buffer Size", core.BufDepth)
	fmt.Fprintf(w, "%-28s %d\n", "VCs per PC", core.VCs)
	fmt.Fprintf(w, "%-28s 1 unit\n", "Network Cycle Time")
	fmt.Fprintf(w, "%-28s 5 units (PROUD) / 4 units (LA-PROUD)\n", "Router Latency (cont.-free)")
	fmt.Fprintf(w, "%-28s %d unit(s)\n", "Link Delay", core.LinkDelay)
}
