package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// hostBlock identifies the host and the code of a run.
type hostBlock struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	// SourceDigest hashes the module's Go sources, so records from a
	// checkout without git history still name the code they measured.
	SourceDigest string    `json:"sourceDigest"`
	ProbeBefore  hostProbe `json:"probeBefore"`
	ProbeAfter   hostProbe `json:"probeAfter"`
}

// hostProbe times a fixed integer loop: its minimum is the host's speed
// when undisturbed, its median shows whether the run sat in a slow phase.
type hostProbe struct {
	MinMs    float64 `json:"minMs"`
	MedianMs float64 `json:"medianMs"`
	Reps     int     `json:"reps"`
}

func newHostBlock(commit string) hostBlock {
	return hostBlock{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		Commit:       commit,
		SourceDigest: sourceDigest("."),
	}
}

// probeLoopIters sizes one probe repetition at roughly 10 ms.
const (
	probeLoopIters = 5_000_000
	probeReps      = 15
)

var probeSink uint64

func probeHost() hostProbe {
	times := make([]float64, probeReps)
	for i := range times {
		start := time.Now()
		x := uint64(i) + 1
		for j := 0; j < probeLoopIters; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
		times[i] = ms(time.Since(start))
	}
	sort.Float64s(times)
	return hostProbe{MinMs: times[0], MedianMs: times[len(times)/2], Reps: probeReps}
}

// vmHWM returns the peak resident set size of a process in MB, from
// /proc/<pid>/status; 0 where the file is unavailable.
func vmHWM(pid int) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS resets this process's VmHWM to its current resident set
// size (Linux clear_refs, value 5).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// sourceDigest hashes every .go file and go.mod under root (relative
// paths and contents), skipping hidden directories such as the build
// output. The benchmark runs from the repository root.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
