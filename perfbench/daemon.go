package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running palservd or palrouter process.
type daemon struct {
	cmd       *exec.Cmd
	addr      string // tenant-facing wire address
	debugAddr string // /metrics address, "" when not started with -debug
	exited    chan struct{}
}

// startTimeout bounds how long a daemon may take to print its listen
// address (RSA key generation and replica boot happen before it).
const startTimeout = 60 * time.Second

// startDaemon execs bin with args and waits until it reports its listen
// address (and its debug address when wantDebug). The daemons are given
// port 0 and print the address they bound, so concurrent checkouts never
// collide on a port.
func startDaemon(bin string, args []string, wantDebug bool) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	found := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(out)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			if a, ok := addrAfter(line, "debug server on http://"); ok && d.debugAddr == "" {
				d.debugAddr = a
			}
			if a, ok := addrAfter(line, "serving PAL jobs on "); ok && d.addr == "" {
				d.addr = a
			}
			if !signalled && d.addr != "" && (!wantDebug || d.debugAddr != "") {
				signalled = true
				close(found)
			}
		}
		// Keep draining until exit so the daemon never blocks on stdout.
		_, _ = io.Copy(io.Discard, out)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-found:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(startTimeout):
		d.stop()
		return nil, fmt.Errorf("%s did not report its address within %v", filepath.Base(bin), startTimeout)
	}
}

// addrAfter extracts the host:port that follows marker in line.
func addrAfter(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(marker):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

// stop asks the daemon to shut down, kills it if it lingers, and waits
// until the process has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMiB sums VmHWM (peak resident set) over the daemon and its
// descendants, in MiB.
func (d *daemon) peakRSSMiB() (float64, error) {
	var total float64
	for _, pid := range processTree(d.cmd.Process.Pid) {
		kb, err := vmHWM(pid)
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// vmHWM reads one process's VmHWM in KiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
