package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/tdmdserve of the checkout at root into the
// build directory. The build is never timed.
func buildServer(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/tdmdserve")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building cmd/tdmdserve: %w", err)
	}
	return nil
}

// server is a running tdmdserve child on loopback.
type server struct {
	cmd     *exec.Cmd
	base    string        // http://127.0.0.1:port
	drained chan struct{} // closed once the stderr drain has seen EOF
	ready   time.Duration // exec to the first 200 from /readyz
}

var listenRE = regexp.MustCompile(`tdmdserve listening" addr=(\S+)`)

// startServer execs the binary with default flags on a kernel-chosen
// loopback port and waits until /readyz answers 200. The child's
// stderr (startup line, then one access-log line per request) is
// drained continuously, so the server can never block on a full pipe.
func startServer(bin string, client *http.Client) (*server, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drained)
		br := bufio.NewReader(stderr)
		for {
			line, err := br.ReadString('\n')
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.drained:
		s.stop()
		return nil, fmt.Errorf("tdmdserve exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("tdmdserve did not announce its address")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := client.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("tdmdserve never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	s.ready = time.Since(start)
	return s, nil
}

// peakRSSMiB reads the child's VmHWM (peak resident set) from procfs.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime is the child's user plus system CPU time so far, from
// /proc/<pid>/stat in clock ticks (USER_HZ, 100 per second on Linux).
// Time the host steals from the VM never accrues here, which is why
// the benchmark gates CPU per operation rather than wall-clock rates.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; the fields after its
	// closing parenthesis start at field 3, so utime and stime (fields
	// 14 and 15) are the 12th and 13th.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	var ticks int64
	for _, field := range f[11:13] {
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %v", s.cmd.Process.Pid, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * (time.Second / 100), nil
}

// stop sends SIGTERM (the server drains and exits), escalates to
// SIGKILL after a grace period, and waits until the process and its
// stderr drain have both ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.drained
}

// scrape fetches the server's /metrics exposition.
func scrape(ctx context.Context, client *http.Client, base string) (metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}
