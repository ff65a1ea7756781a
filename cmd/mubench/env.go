package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envStamp names the conditions a run was measured under. Numbers are
// comparable only between runs with equal stamps (commit aside).
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"engine_workers"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
}

// stampEnv measures the environment from outside the program: the CPU
// model and kernel from /proc, the scheduler settings from the runtime,
// and the commit from the VCS stamp the go command writes into the
// binary ("unknown" when it was built outside a git checkout).
func stampEnv(workers int) envStamp {
	st := envStamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				st.Commit = s.Value
			case "vcs.modified":
				st.Dirty = s.Value
			}
		}
	}
	return st
}
