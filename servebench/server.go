package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one sqserver process under test.
type serverProc struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	exited chan struct{} // closed once the process has been waited for
}

// setupTimeout bounds one server start; the largest set-up on this
// benchmark's inputs takes a few seconds.
const setupTimeout = 60 * time.Second

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches sqserver on dbPath with the workload's flags and
// returns once /healthz answers 200, with the time that took.
func startServer(bin, dbPath, logPath string, w workload) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{
		"-db", dbPath, "-addr", addr,
		"-engine", w.engine, "-cache", strconv.Itoa(w.cache),
		"-budget", "5s",
	}
	if w.shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting sqserver: %w", err)
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a server stopped by signal is expected
		close(p.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-p.exited:
			return nil, 0, fmt.Errorf("sqserver exited during set-up (%v); log in %s", cmd.ProcessState, logPath)
		default:
		}
		if resp, err := probe.Get(p.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(t0), nil
			}
		}
		if time.Since(t0) > setupTimeout {
			p.stop()
			return nil, 0, fmt.Errorf("sqserver not healthy after %v; log in %s", setupTimeout, logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to drain (SIGTERM) and waits for it to exit,
// killing it if it does not within ten seconds.
func (p *serverProc) stop() error {
	if p == nil {
		return nil
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.exited:
		return nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("sqserver pid %d ignored SIGTERM and was killed", p.cmd.Process.Pid)
	}
}

// peakRSSMB reads the server's peak resident set (VmHWM).
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in the status of pid %d", p.cmd.Process.Pid)
}

// counters scrapes the server's /metrics counters.
func (p *serverProc) counters(c *http.Client) (map[string]int64, error) {
	resp, err := c.Get(p.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m.Counters, nil
}
