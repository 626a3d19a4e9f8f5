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
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/reprolab/opim/internal/obs"
)

// clientTimeout bounds every request the benchmark sends; a request that
// takes longer counts as failed.
const clientTimeout = 30 * time.Second

// asLoadGenerator confines the benchmark process to one P when it only
// drives a daemon, so its goroutines take at most one CPU from the
// program under test, and raises its scheduling priority, so a request
// leaves when it is due rather than when the daemon's background work
// yields a CPU. It reports whether the priority could be raised.
func asLoadGenerator() bool {
	runtime.GOMAXPROCS(1)
	return syscall.Setpriority(syscall.PRIO_PROCESS, 0, -10) == nil
}

// daemon is one opimd process under test, listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan error // receives cmd.Wait's result once
	base    string
	hc      *http.Client
	logf    *os.File
	stopped bool
}

// startDaemon starts bin with args on a free loopback port and waits until
// it answers GET /status.
func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args = append(args, "-listen", fmt.Sprintf("127.0.0.1:%d", port))
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting opimd: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		base:   fmt.Sprintf("http://127.0.0.1:%d", port),
		hc: &http.Client{
			Timeout:   clientTimeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		},
		logf: logf,
	}
	go func() { d.exited <- cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case err := <-d.exited:
			d.exited <- err
			logf.Close()
			return nil, fmt.Errorf("opimd exited during start-up (%v); see %s", err, logPath)
		default:
		}
		if d.do(http.MethodGet, "/status", nil, nil) == nil {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("opimd did not answer within 60s; see %s", logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the daemon down gracefully (SIGTERM), killing it if it has
// not exited within 30 seconds, and waits for it to end. Stopping a
// stopped daemon does nothing.
func (d *daemon) stop() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.hc.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is fine
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// do sends one request with an optional JSON body and decodes the 200
// response into out (when non-nil). Any other status is an error.
func (d *daemon) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

// metrics scrapes the daemon's counters and timers.
func (d *daemon) metrics() (obs.Snapshot, error) {
	var s obs.Snapshot
	err := d.do(http.MethodGet, "/metrics", nil, &s)
	return s, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// procStatusKB reads one "Key: N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", key, pid)
}

// peakMB is the process's peak resident set size in MiB.
func peakMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM")
	return float64(kb) / 1024, err
}

var pidSelf = os.Getpid()

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds is the user+system CPU time process pid has used.
func cpuSeconds(pid int) (float64, error) {
	if pid == os.Getpid() {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return 0, err
		}
		return tv(ru.Utime) + tv(ru.Stime), nil
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(v), ":"))
		}
	}
	return "unknown"
}

// timerDelta is the change of one daemon timer between two scrapes.
func timerDelta(a, b obs.Snapshot, name string) (count int64, sumMs float64) {
	ta, tb := a.Timers[name], b.Timers[name]
	return tb.Count - ta.Count, (tb.SumSeconds - ta.SumSeconds) * 1000
}

// timerMeanMs is the mean of one daemon timer's observations between two
// scrapes; 0 when it observed nothing.
func timerMeanMs(a, b obs.Snapshot, name string) float64 {
	n, sum := timerDelta(a, b, name)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func counterDelta(a, b obs.Snapshot, name string) int64 { return b.Counters[name] - a.Counters[name] }
