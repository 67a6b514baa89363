package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incr"
)

// The serving schedule. One round replays the edit script as POST /mutate
// requests beside serveReads GETs, all due at seeded offsets within
// serveRoundTime; the round runs in serveChunks slices interleaved with
// the other sections. One connection carries the reads, cached and
// approximate; the other carries the mutations, so a mutation can arrive
// while an approximate read holds a pooled engine and its fleet rebind
// then waits for that run. The read connection is busy about half of a
// round and the write connection a quarter; a request's latency counts
// from when it was due.
const (
	serveRoundTime = 6 * time.Second
	serveChunks    = 5
	serveReads     = 1000
	// serveApprox reads of a round go to the approximate tier. They keep
	// a pooled engine busy about a fifth to a quarter of a round, so about
	// that share of the mutations waits on one, and mutate_p90_ms includes
	// those waits.
	serveApprox  = 18
	serveEngines = 2
	serveTimeout = 20 * time.Second
)

const (
	readCore   = iota // GET /core?h=2: the maintained h, served from the cache
	readApprox        // GET /decompose?h=3&mode=approx: a pooled engine run
	write             // POST /mutate: one script position
)

// request is one scheduled request of a round.
type request struct {
	due  time.Duration // offset within the round
	kind int
	idx  int    // position among the round's reads, or script position of a write
	body []byte // POST /mutate body; nil for reads
}

// serveBench drives the khserve binary over loopback HTTP.
type serveBench struct {
	cfg    config
	ck     *checker
	tr     *tracer
	n      int // vertices of the served graph
	script [][]incr.Edit

	proc   *exec.Cmd
	stderr chan struct{} // closed once the daemon's stderr is drained
	base   string
	reads  []request
	writes []request
	// The two connections' clients, one connection each. reads and
	// writes are their queues, each in due order.
	readClient, writeClient *http.Client

	readBest, writeBest []float64 // per position, best over rounds
	readAll, writeAll   []float64 // every sample (diagnostics)
	coreLat, approxLat  []float64 // service time by read kind (diagnostics)
	lateness            []float64 // generator lateness
	shed, degraded      int
	rounds              int
	setupBest           time.Duration
}

func newServeBench(cfg config, ck *checker, tr *tracer, g *graph.Graph, script [][]incr.Edit) (*serveBench, error) {
	s := &serveBench{cfg: cfg, ck: ck, tr: tr, n: g.NumVertices(), script: script}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	file := filepath.Join(cfg.outDir, fmt.Sprintf("serve-%s-seed%d-%d.txt", cfg.workload, cfg.seed, os.Getpid()))
	defer os.Remove(file)
	for try := 0; try < setupTries; try++ {
		s.stop()
		sp := tr.begin(true, "setup.serve", -1, try)
		start := time.Now()
		if err := writeEdgeFile(file, g); err != nil {
			return nil, err
		}
		if err := s.start(file); err != nil {
			s.stop()
			return nil, err
		}
		d := time.Since(start)
		tr.end(sp)
		if try == 0 || d < s.setupBest {
			s.setupBest = d
		}
	}
	s.schedule()
	s.readBest = make([]float64, len(s.reads))
	s.writeBest = make([]float64, len(s.writes))
	s.readClient = newClient()
	s.writeClient = newClient()
	return s, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: serveTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// writeEdgeFile writes g as an edge list whose first-appearance order is
// the vertex order, so the daemon's dense ids equal g's (a "v v" line
// registers v; self-loops add no edge).
func writeEdgeFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(w, "%d %d\n", v, v)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(v) {
			if int(u) > v {
				fmt.Fprintf(w, "%d %d\n", v, u)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// start launches the daemon on an ephemeral loopback port and waits until
// /readyz answers 200.
func (s *serveBench) start(file string) error {
	cmd := exec.Command(s.cfg.khserve,
		"-addr", "127.0.0.1:0",
		"-engines", strconv.Itoa(serveEngines),
		"-workers", strconv.Itoa(s.cfg.workers),
		"-mutate-h", strconv.Itoa(editH),
		"-drain", "2s",
		file)
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting khserve: %w", err)
	}
	s.proc = cmd
	s.stderr = make(chan struct{})
	addr := make(chan string, 1)
	go func() {
		defer close(s.stderr)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addr <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // keep draining after a scan error
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.stderr:
		return errors.New("khserve exited before listening")
	case <-time.After(60 * time.Second):
		return errors.New("khserve did not report its address within 60s")
	}
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("khserve not ready within 60s")
}

// stop terminates the daemon and waits for it and its stderr reader.
func (s *serveBench) stop() {
	if s.proc == nil {
		return
	}
	_ = s.proc.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-s.stderr
		_ = s.proc.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = s.proc.Process.Kill()
		<-done
	}
	s.proc = nil
}

func (s *serveBench) close() {
	if s.readClient != nil {
		s.readClient.CloseIdleConnections()
		s.writeClient.CloseIdleConnections()
	}
	s.stop()
}

func (s *serveBench) pid() int {
	if s.proc == nil {
		return 0
	}
	return s.proc.Process.Pid
}

// schedule lays out one round. Arrivals come at a constant rate, as from
// a constant-throughput load generator: request i of k is due at
// (i + phase)/k of the round, with the phase drawn from the seed.
// Jittered arrivals let requests queue behind each other on their
// connection whenever two drew close due times, and that queueing grew
// steeply with the host's slow phases. Evenly spaced reads, from an
// offset drawn from the seed, are approximate, so the approximate reads
// come at a constant rate too.
func (s *serveBench) schedule() {
	r := gen.NewRNG(s.cfg.seed ^ 0x5e7e)
	phase := r.Float64()
	slot := func(i, k int) time.Duration {
		return time.Duration((float64(i) + phase) * float64(serveRoundTime) / float64(k))
	}
	s.reads = make([]request, serveReads)
	for i := range s.reads {
		s.reads[i] = request{due: slot(i, serveReads), kind: readCore, idx: i}
	}
	stride := serveReads / serveApprox
	first := r.Intn(stride)
	for k := 0; k < serveApprox; k++ {
		s.reads[k*stride+first].kind = readApprox
	}
	s.writes = make([]request, len(s.script))
	for p, batch := range s.script {
		s.writes[p] = request{due: slot(p, len(s.script)), kind: write, idx: p, body: mutateBody(batch)}
	}
}

func mutateBody(batch []incr.Edit) []byte {
	type edit struct {
		Op string `json:"op"`
		U  int    `json:"u"`
		V  int    `json:"v"`
	}
	edits := make([]edit, len(batch))
	for i, e := range batch {
		op := "insert"
		if e.Op == incr.Delete {
			op = "delete"
		}
		edits[i] = edit{op, e.U, e.V}
	}
	b, _ := json.Marshal(struct {
		Edits []edit `json:"edits"`
	}{edits}) // plain structs of strings and ints always marshal
	return b
}

// sample is one completed request.
type sample struct {
	rq       request
	latency  float64
	service  float64
	lateness float64
	start    time.Time
	end      time.Time
	ok       bool
	degraded bool
	shed     bool
	err      string
}

// chunk runs slice c of the current round: every request due in it, each
// connection's queue on its own goroutine.
func (s *serveBench) chunk(c int) error {
	lo := serveRoundTime * time.Duration(c) / serveChunks
	hi := serveRoundTime * time.Duration(c+1) / serveChunks
	traced := s.tr.on
	cs := s.tr.begin(traced, "serve.chunk", -1, s.rounds*serveChunks+c)
	t0 := time.Now()
	var reads, writes []sample
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		reads = s.drive(s.readClient, s.reads, lo, hi, t0)
	}()
	go func() {
		defer wg.Done()
		writes = s.drive(s.writeClient, s.writes, lo, hi, t0)
	}()
	wg.Wait()
	if rem := hi - lo - time.Since(t0); rem > 0 {
		time.Sleep(rem)
	}
	s.tr.end(cs)
	for _, x := range append(reads, writes...) {
		s.account(x, cs)
	}
	if c == serveChunks-1 {
		s.rounds++
	}
	return nil
}

// drive sends the requests due in [lo, hi) in order on one client. A
// request is sent at its due time or, if the connection is still busy,
// as soon as it frees up.
func (s *serveBench) drive(cl *http.Client, reqs []request, lo, hi time.Duration, t0 time.Time) []sample {
	var out []sample
	free := t0
	for _, rq := range reqs {
		if rq.due < lo || rq.due >= hi {
			continue
		}
		due := t0.Add(rq.due - lo)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		start := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		x := sample{rq: rq, start: start, lateness: ms(start.Sub(ready))}
		s.send(cl, &x)
		x.end = time.Now()
		free = x.end
		x.latency = ms(x.end.Sub(due))
		x.service = ms(x.end.Sub(start))
		out = append(out, x)
	}
	return out
}

// send issues one request and checks its response.
func (s *serveBench) send(cl *http.Client, x *sample) {
	var resp *http.Response
	var err error
	switch x.rq.kind {
	case write:
		resp, err = cl.Post(s.base+"/mutate", "application/json", bytes.NewReader(x.rq.body))
	case readCore:
		resp, err = cl.Get(s.base + "/core?h=2")
	default:
		resp, err = cl.Get(s.base + "/decompose?h=3&mode=approx")
	}
	if err != nil {
		x.err = err.Error()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		x.err = err.Error()
		return
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		x.shed = true
	}
	if resp.StatusCode/100 != 2 {
		x.err = fmt.Sprintf("status %d: %.200s", resp.StatusCode, body)
		return
	}
	if !json.Valid(body) {
		x.err = "2xx body is not valid JSON"
		return
	}
	var v struct {
		H        int             `json:"h"`
		Size     int             `json:"size"`
		Degraded bool            `json:"degraded"`
		Approx   json.RawMessage `json:"approx"`
		Applied  int             `json:"applied"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		x.err = err.Error()
		return
	}
	x.degraded = v.Degraded
	switch x.rq.kind {
	case write:
		if n := len(s.script[x.rq.idx]); v.Applied != n {
			x.err = fmt.Sprintf("mutate applied %d edits, sent %d", v.Applied, n)
			return
		}
	case readCore:
		if v.H != 2 || v.Size != s.n {
			x.err = fmt.Sprintf("core: h=%d size=%d, want h=2 size=%d", v.H, v.Size, s.n)
			return
		}
	default:
		if v.H != 3 || len(v.Approx) == 0 {
			x.err = "approx decompose: missing approx block or wrong h"
			return
		}
	}
	x.ok = true
}

func (s *serveBench) account(x sample, parent int) {
	s.ck.ok(x.ok, "serve round %d request kind %d position %d: %s", s.rounds, x.rq.kind, x.rq.idx, x.err)
	if x.shed {
		s.shed++
	}
	if x.degraded {
		s.degraded++
	}
	s.lateness = append(s.lateness, x.lateness)
	best := s.readBest
	name := "http.read"
	switch x.rq.kind {
	case write:
		best = s.writeBest
		name = "http.mutate"
		s.writeAll = append(s.writeAll, x.latency)
	case readCore:
		s.readAll = append(s.readAll, x.latency)
		s.coreLat = append(s.coreLat, x.service)
	default:
		s.readAll = append(s.readAll, x.latency)
		s.approxLat = append(s.approxLat, x.service)
	}
	if x.ok && (best[x.rq.idx] == 0 || x.latency < best[x.rq.idx]) {
		best[x.rq.idx] = x.latency
	}
	s.tr.add(name, parent, parent, x.start, x.end)
}

// finalChecks runs after the last round, which left the graph as it
// started: the served exact cores must equal the starting cores, and the
// graph version must count every mutation.
func (s *serveBench) finalChecks(core0 []int) error {
	cl := &http.Client{Timeout: serveTimeout}
	defer cl.CloseIdleConnections()
	// The cached entry holds the maintainer's repaired cores; the uncached
	// one is a fresh run on the rebound engine fleet.
	for _, q := range []string{"", "&cache=never"} {
		var dec struct {
			Core []int `json:"core"`
		}
		if err := getJSON(cl, s.base+"/decompose?h=2&vertices=1"+q, &dec); err != nil {
			return err
		}
		s.ck.ok(digest(dec.Core) == digest(core0), "serve: cores%s after %d rounds differ from the starting cores", q, s.rounds)
	}
	var hz struct {
		GraphVersion int64 `json:"graphVersion"`
	}
	if err := getJSON(cl, s.base+"/healthz", &hz); err != nil {
		return err
	}
	want := int64(1 + s.rounds*len(s.writes))
	s.ck.ok(hz.GraphVersion == want, "serve: graph version %d after %d mutations, want %d", hz.GraphVersion, want-1, want)
	return nil
}

func getJSON(cl *http.Client, url string, v any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (s *serveBench) positions() map[string][]float64 {
	var core, approx []float64
	for i, rq := range s.reads {
		if rq.kind == readCore {
			core = append(core, s.readBest[i])
		} else {
			approx = append(approx, s.readBest[i])
		}
	}
	return map[string][]float64{"core": core, "approx": approx, "mutate": s.writeBest}
}

func (s *serveBench) diagnostics() map[string]float64 {
	return map[string]float64{
		"serve_rounds":          float64(s.rounds),
		"serve_read_positions":  float64(len(s.reads)),
		"serve_write_positions": float64(len(s.writes)),
		"read_raw_p50_ms":       quantile(s.readAll, 0.5),
		"read_raw_p99_ms":       quantile(s.readAll, 0.99),
		"mutate_raw_p50_ms":     quantile(s.writeAll, 0.5),
		"mutate_raw_p90_ms":     quantile(s.writeAll, 0.9),
		"core_service_p50_ms":   quantile(s.coreLat, 0.5),
		"core_service_p99_ms":   quantile(s.coreLat, 0.99),
		"approx_service_p50_ms": quantile(s.approxLat, 0.5),
		"approx_service_max_ms": quantile(s.approxLat, 1),
		"lateness_p99_ms":       quantile(s.lateness, 0.99),
	}
}
