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
	"strconv"
	"strings"
	"syscall"
	"time"

	"temporaldoc/internal/telemetry"
)

// server is one `tdc serve` subprocess built from the commit under test.
type server struct {
	cmd  *exec.Cmd
	base string
	// exited is closed once the process has been reaped.
	exited chan struct{}
}

// spawn starts `tdc serve args...` on an ephemeral port and waits until
// /v1/healthz answers 200. The returned duration is the set-up time:
// process start until that first 200.
func spawn(client *http.Client, tdc string, stderr io.Writer, args ...string) (*server, time.Duration, error) {
	args = append([]string{"serve", "-addr", "127.0.0.1:0", "-quiet"}, args...)
	cmd := exec.Command(tdc, args...)
	cmd.Stderr = stderr
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	baseCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "serving on "); ok {
				baseCh <- rest
			}
		}
		// Drain so the child never blocks on a full pipe, then reap it.
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	select {
	case s.base = <-baseCh:
	case <-s.exited:
		return nil, 0, fmt.Errorf("tdc serve exited before listening: %v", cmd.ProcessState)
	case <-deadline.C:
		s.kill()
		return nil, 0, errors.New("tdc serve did not print its address within 60s")
	}
	for {
		resp, err := client.Get(s.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case <-deadline.C:
			s.stop()
			return nil, 0, errors.New("tdc serve: /v1/healthz not 200 within 60s")
		case <-time.After(time.Millisecond):
		}
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// vmHWM parses the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM line", path)
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it has not within 10s. Stopping a stopped server is a
// no-op.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// spawnMedian spawns the server `times` times and keeps the last one;
// the set-up time is the median over all spawns.
func spawnMedian(client *http.Client, tdc string, stderr io.Writer, times int, args ...string) (*server, timing, error) {
	var setups []float64
	for i := 0; ; i++ {
		s, d, err := spawn(client, tdc, stderr, args...)
		if err != nil {
			return nil, timing{}, err
		}
		setups = append(setups, d.Seconds())
		if i == times-1 {
			return s, summarize(setups), nil
		}
		s.stop()
	}
}

// The wire types below mirror the server's JSON API; they are declared
// here so the benchmark depends on the HTTP contract only.

type classifyDoc struct {
	ID   string `json:"id,omitempty"`
	Text string `json:"text"`
}

type classifyRequest struct {
	ID        string        `json:"id,omitempty"`
	Text      string        `json:"text,omitempty"`
	Documents []classifyDoc `json:"documents,omitempty"`
	Model     string        `json:"model,omitempty"`
	Version   string        `json:"version,omitempty"`
}

type classifyResponse struct {
	ModelHash string `json:"model_hash"`
	Model     string `json:"model"`
	Version   string `json:"version"`
	Results   []struct {
		ID         string   `json:"id"`
		Categories []string `json:"categories"`
	} `json:"results"`
}

type statzResponse struct {
	Requests struct {
		Shed    int64 `json:"shed"`
		Timeout int64 `json:"timeout"`
	} `json:"requests"`
}

type modelzResponse struct {
	Metrics struct {
		Counters   map[string]int64                       `json:"counters"`
		Histograms map[string]telemetry.HistogramSnapshot `json:"histograms"`
	} `json:"metrics"`
}

// serverStats is one read of the server's own observers: /v1/statz for
// the request accounting and /v1/modelz for the telemetry registry.
type serverStats struct {
	statz  statzResponse
	modelz modelzResponse
}

func readStats(client *http.Client, base string) (serverStats, error) {
	var st serverStats
	if err := getJSON(client, base+"/v1/statz", &st.statz); err != nil {
		return st, err
	}
	return st, getJSON(client, base+"/v1/modelz", &st.modelz)
}

// counter is the window delta of a server counter.
func counter(before, after serverStats, name string) int64 {
	return after.modelz.Metrics.Counters[name] - before.modelz.Metrics.Counters[name]
}

// histUS is a window-delta percentile of a server histogram (seconds)
// in microseconds, with its sample count.
func histUS(before, after serverStats, name string, q float64) (float64, int64) {
	h := after.modelz.Metrics.Histograms[name].Sub(before.modelz.Metrics.Histograms[name])
	if h.Count == 0 {
		return 0, 0
	}
	return h.Quantile(q) * 1e6, h.Count
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// post sends a JSON body and returns the status and response bytes.
func post(client *http.Client, url, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}
