package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is a running mfserved process and an HTTP client limited to
// the benchmark's connection budget.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
	base   string
	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots mfserved with -workers = workers, keeping retain
// finished jobs pollable, and waits until it answers /healthz. conns
// caps the client's connections to it.
func startServer(bin string, workers, conns, retain int) (*child, error) {
	if bin == "" {
		return nil, errors.New("no mfserved binary (-server)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(workers),
		"-retain", strconv.Itoa(retain), "-log-level", "warn")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mfserved: %w", err)
	}
	c := &child{cmd: cmd, exited: make(chan struct{}), base: "http://" + addr,
		client: &http.Client{
			Timeout: time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
			},
		}}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries no information
		close(c.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, _, err := c.get("/healthz")
		if err == nil && code == http.StatusOK {
			return c, nil
		}
		select {
		case <-c.exited:
			return nil, errors.New("mfserved exited during start-up")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("mfserved not healthy after 20s: %v", err)
		}
	}
}

// stop terminates the server and waits until the process has ended.
func (c *child) stop() {
	if c == nil {
		return
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	c.client.CloseIdleConnections()
}

func (c *child) pid() string { return strconv.Itoa(c.cmd.Process.Pid) }

func (c *child) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (c *child) get(path string) (int, []byte, error) { return c.do(http.MethodGet, path, nil) }

func (c *child) post(path string, body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, path, body)
}

// span is the subset of obs.Span the benchmark reads off job replies.
type span struct {
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us"`
}

// jobReply is the subset of GET /v1/jobs/{id} the benchmark reads.
type jobReply struct {
	Status   string     `json:"status"`
	Error    string     `json:"error"`
	Finished *time.Time `json:"finished"`
	Metrics  *struct {
		ExecutionTimeMs int64 `json:"execution_time_ms"`
		ChannelLengthUm int64 `json:"channel_length_um"`
		ChannelWashMs   int64 `json:"channel_wash_ms"`
	} `json:"metrics"`
	Spans []span `json:"trace_spans"`
}

// spanMs returns the summed duration of the reply's spans named name.
func (j *jobReply) spanMs(name string) (float64, bool) {
	var us int64
	found := false
	for _, s := range j.Spans {
		if s.Name == name {
			us += s.DurUS
			found = true
		}
	}
	return float64(us) / 1000, found
}

// job fetches one job record.
func (c *child) job(id string) (*jobReply, error) {
	code, data, err := c.get("/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("job %s: HTTP %d: %s", id, code, strings.TrimSpace(string(data)))
	}
	var j jobReply
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	return &j, nil
}

// await polls a job until it is terminal. Latency never comes from the
// poll: callers read the job's own finished timestamp.
func (c *child) await(id string) (*jobReply, error) {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, err := c.job(id)
		if err != nil {
			return nil, err
		}
		if j.Status != "queued" && j.Status != "running" {
			return j, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s still %s after 2m", id, j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// submitReply is the subset of POST /v1/synthesize's reply the
// benchmark reads.
type submitReply struct {
	JobID  string `json:"job_id"`
	Cached bool   `json:"cached"`
}

// promCounters scrapes /metrics into a map of unlabelled and labelled
// sample lines ("name" or "name{labels}") to values.
func (c *child) promCounters() (map[string]float64, error) {
	code, data, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
