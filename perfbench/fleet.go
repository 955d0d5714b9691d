package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one molqd process started by the benchmark. Its stderr (the
// server's structured log) goes to a file under the work directory; the
// listen address is read from the "molqd listening" line.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr string // http://host:port
	log  *os.File
}

var listenRE = regexp.MustCompile(`msg="molqd listening".* addr=(\S+)`)

// addrWatcher copies the child's stderr to the log file and reports the
// listen address once.
type addrWatcher struct {
	mu    sync.Mutex
	out   io.Writer
	buf   []byte
	found chan string // buffered 1: one address per process
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.found != nil {
		a.buf = append(a.buf, p...)
		if m := listenRE.FindSubmatch(a.buf); m != nil {
			a.found <- string(m[1])
			a.found, a.buf = nil, nil
		} else if i := bytes.LastIndexByte(a.buf, '\n'); i >= 0 {
			a.buf = a.buf[i+1:]
		}
	}
	return a.out.Write(p)
}

// startProc starts molqd with args and waits for its listen address.
func startProc(bin, logDir, name string, args ...string) (*proc, error) {
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	found := make(chan string, 1)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &addrWatcher{out: logf, found: found}
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: logf}
	select {
	case addr := <-found:
		p.addr = "http://" + addr
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s: no listen address within 30s (log %s)", name, logf.Name())
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// within 15 s, waits for it, and returns its peak resident set in MB.
func (p *proc) stop() (peakMB float64) {
	// The kernel's high-water mark of the process's own address space. The
	// rusage of the reaped child is no use here: it carries over the
	// benchmark's resident set at fork time.
	peakMB = vmHWM(p.cmd.Process.Pid)
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait() // exit status of a drained server is not checked
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
	p.log.Close()
	return peakMB
}

// vmHWM reads the peak resident set (VmHWM) of process pid, in MB; 0 when
// it cannot be read.
func vmHWM(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// fleet is the set of molqd processes behind one workload: one standalone
// node, or a router with replicas.
type fleet struct {
	front    *proc   // the process clients talk to
	replicas []*proc // cluster replicas (empty for a single node)
}

// stop stops every process and returns the sum of their peak resident sets.
func (f *fleet) stop() float64 {
	total := 0.0
	// Replicas first, so the router never sees a half-stopped cluster serve.
	for i := len(f.replicas) - 1; i >= 0; i-- {
		total += f.replicas[i].stop()
	}
	return total + f.front.stop()
}

// startFleet boots one standalone node or, for a cluster, a router and
// clusterReplicas replicas, with default flags (listening on ephemeral
// loopback ports), and waits until the router sees every replica as live.
func startFleet(bin, logDir string, cluster bool, boot int) (*fleet, error) {
	addr := "-addr=127.0.0.1:0"
	if !cluster {
		p, err := startProc(bin, logDir, fmt.Sprintf("node-%d", boot), addr)
		if err != nil {
			return nil, err
		}
		return &fleet{front: p}, nil
	}
	router, err := startProc(bin, logDir, fmt.Sprintf("router-%d", boot), addr, "-router")
	if err != nil {
		return nil, err
	}
	f := &fleet{front: router}
	for i := 0; i < clusterReplicas; i++ {
		rp, err := startProc(bin, logDir, fmt.Sprintf("replica-%d-%d", boot, i), addr, "-join="+router.addr)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.replicas = append(f.replicas, rp)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		n, err := liveNodes(router.addr)
		if err == nil && n == clusterReplicas {
			return f, nil
		}
		if time.Now().After(deadline) {
			f.stop()
			return nil, fmt.Errorf("cluster: %d of %d replicas live after 30s (err %v)", n, clusterReplicas, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func liveNodes(base string) (int, error) {
	resp, err := http.Get(base + "/cluster/v1/nodes")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var nodes []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		return 0, err
	}
	return len(nodes), nil
}

// scrape reads a Prometheus text exposition and sums every sample of each
// metric name across its label sets.
func scrape(ctx context.Context, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/v1/metrics: %s", base, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, nil
}

// scrapeAll sums scrape over several servers.
func scrapeAll(ctx context.Context, ps []*proc) (map[string]float64, error) {
	total := make(map[string]float64)
	var errs []error
	for _, p := range ps {
		m, err := scrape(ctx, p.addr)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, errors.Join(errs...)
}
