package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostEnv is the environment recorded with every result: what was measured
// (commit or source digest) and on what (CPU, parallelism, toolchain, and
// the timer floor that bounds paced serving latency).
type hostEnv struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	CPU          string  `json:"cpu"`
	GoVersion    string  `json:"go"`
	TimerFloorUS float64 `json:"timer_floor_us"`
}

func probeHost(root string) hostEnv {
	return hostEnv{
		Commit:       buildCommit(),
		SourceSHA256: sourceDigest(root),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		TimerFloorUS: timerFloorUS(),
	}
}

// buildCommit is the VCS revision the toolchain stamped into the binary, or
// "unknown" when it was built outside a repository (a plain source export).
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (skipping
// dot-directories and build output), which identifies the measured code
// even where no commit is available.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f+"\x00")
		io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// timerFloorUS is the median wall time a 50µs timer takes to fire, in µs.
// Paced serving (accel 1) sleeps on such timers between events, so this
// floor explains most of fleet-http's unmodelled latency on a given host.
func timerFloorUS() float64 {
	const n = 101
	d := make([]float64, n)
	t := time.NewTimer(time.Hour)
	for i := range d {
		start := time.Now()
		t.Reset(50 * time.Microsecond)
		<-t.C
		d[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	t.Stop()
	return median(d)
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stealNS is the CPU time the hypervisor has taken from this VM's CPUs for
// other guests (the steal column of /proc/stat, summed over CPUs), or 0
// where the kernel does not report it. On a shared host it comes in bursts
// of minutes; wall-clock measurements of CPU-bound work subtract it (see
// README.md, Noise), since it is time the program could not run.
func stealNS() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return ticks * 1e7 // USER_HZ is 100 on Linux
}

// procSnap is a point-in-time reading of the process counters the per-layer
// Go-runtime and process metrics are deltas of.
type procSnap struct {
	cpuNS   int64 // user+sys CPU time
	mallocs uint64
	gcCPU   float64 // seconds of GC CPU
	allCPU  float64 // seconds of all CPU the runtime accounts
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readProc() procSnap {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	return procSnap{
		cpuNS:   ru.Utime.Nano() + ru.Stime.Nano(),
		gcCPU:   s[0].Value.Float64(),
		allCPU:  s[1].Value.Float64(),
		mallocs: s[2].Value.Uint64(),
	}
}

// procDelta is the process cost of one measured phase, per unit of work.
type procDelta struct {
	cpuUSPerReq  float64
	allocsPerReq float64
	gcCPUFrac    float64
}

func procBetween(a, b procSnap, work int64) procDelta {
	var d procDelta
	if work > 0 {
		d.cpuUSPerReq = float64(b.cpuNS-a.cpuNS) / 1e3 / float64(work)
		d.allocsPerReq = float64(b.mallocs-a.mallocs) / float64(work)
	}
	if all := b.allCPU - a.allCPU; all > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / all
	}
	return d
}
