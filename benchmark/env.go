package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// environment is where a result was measured. It goes into every result
// and trace file: numbers from different boxes do not compare.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	OSArch     string  `json:"os_arch"`
	CPUModel   string  `json:"cpu_model"`
	LoadAvg1   float64 `json:"load_avg_1min_at_start"`
	StoreDir   string  `json:"store_dir"`
	// StoreFS is the filesystem under the store. On tmpfs fsync is free,
	// so serve.store_put_ms_* there says nothing about a disk.
	StoreFS string `json:"store_fs"`
}

func readEnvironment(storeDir string) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:   "unknown",
		StoreDir:   storeDir,
		StoreFS:    fsType(storeDir),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}

// fsType names the filesystem holding dir (or its nearest existing
// ancestor), by the magic number statfs reports.
func fsType(dir string) string {
	var st syscall.Statfs_t
	for d := dir; syscall.Statfs(d, &st) != nil; d = filepath.Dir(d) {
		if d == filepath.Dir(d) {
			return "unknown"
		}
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext2/3/4", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
