package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is the unit of the utime and stime fields of /proc/<pid>/stat
// (USER_HZ, 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procStat returns the parent PID and the CPU time (user + system, all
// threads) of one process.
func procStat(pid int) (ppid int, cpu time.Duration, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name is parenthesised and may contain spaces; the
	// fields after it are positional (state is field 3, ppid 4, utime 14,
	// stime 15).
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: no command name", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	ppid, err = strconv.Atoi(f[1])
	if err != nil {
		return 0, 0, err
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return ppid, time.Duration(ut+st) * clockTick, nil
}

// processTree returns pid and every live descendant of it (palrouter
// -spawn's backends are its children).
func processTree(pid int) []int {
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	children := map[int][]int{}
	for _, d := range dirs {
		p, err := strconv.Atoi(filepath.Base(d))
		if err != nil || p == pid {
			continue
		}
		if pp, _, err := procStat(p); err == nil {
			children[pp] = append(children[pp], p)
		}
	}
	tree := []int{pid}
	for i := 0; i < len(tree); i++ {
		tree = append(tree, children[tree[i]]...)
	}
	return tree
}

// treeCPU returns the CPU time used so far by pid and its descendants.
func treeCPU(pid int) (time.Duration, error) {
	var total time.Duration
	for i, p := range processTree(pid) {
		_, c, err := procStat(p)
		if err != nil {
			if i == 0 {
				return 0, err
			}
			continue // a descendant exited meanwhile
		}
		total += c
	}
	return total, nil
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// machineTicks reads the guest's CPU time so far from /proc/stat, in
// clock ticks summed over its CPUs: busy (user, nice, system, irq and
// softirq), steal (time the hypervisor ran something else while a CPU of
// this guest wanted to run) and the total including idle.
func machineTicks() (busy, steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		switch i {
		case 1, 2, 3, 6, 7:
			busy += v
		case 8:
			steal = v
		}
	}
	return busy, steal, total
}

// spinIters is the length of one clock probe: about 0.3 ms at 3 GHz.
const spinIters = 200_000

// spin runs n iterations of a multiply-add whose every step needs the
// previous result: 3 cycles of integer multiply plus 1 of add on the x86
// cores this benchmark runs on, so the loop takes 4n cycles whatever the
// cache or memory traffic around it.
//
//go:noinline
func spin(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x = x*0x9E3779B97F4A7C15 + 1
	}
	return x
}

var spinSink uint64

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockGHz measures the clock rate the calling thread ran at: the probe
// loop's cycles over the thread CPU time it took. Thread CPU time leaves
// out time the thread was preempted; a probe that a stolen stretch lands
// in reads low, which the median over many probes leaves out. The caller
// must hold its OS thread.
func clockGHz() float64 {
	t0 := threadCPU()
	spinSink += spin(spinIters, spinSink)
	return 4 * spinIters / float64(threadCPU()-t0)
}

// cpuSlice is the length of the parts of the measured window whose CPU
// cost per job is taken separately; cpu_mcycles_per_job is their median.
const cpuSlice = time.Second

// probeGap is the time between two clock probes in the measured window.
const probeGap = 100 * time.Millisecond

// usage is CPU time spent over part of the measured window.
type usage struct {
	daemon, client     time.Duration // user + system CPU of the daemon tree and of this process
	busy, steal, ticks int64         // machine-wide busy, steal and total CPU clock ticks
}

func sampleUsage(pid int) (u usage) {
	u.daemon, _ = treeCPU(pid)
	u.client = selfCPU()
	u.busy, u.steal, u.ticks = machineTicks()
	return u
}

func (u usage) since(v usage) usage {
	return usage{u.daemon - v.daemon, u.client - v.client, u.busy - v.busy, u.steal - v.steal, u.ticks - v.ticks}
}

// slice is one part of the measured window, about cpuSlice long.
type slice struct {
	end      time.Time
	usage    usage   // CPU time spent in it
	clockGHz float64 // median of the clock probes taken in it
}

// watch probes the clock rate every probeGap over the measured window and
// samples the daemon tree pid's CPU time after every cpuSlice of it. The
// shared host lowers the clock when its other cores are busy, and CPU
// time per job follows; cycles per job cancel that part of the drift.
func (res *loadResult) watch(pid int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	time.Sleep(time.Until(res.windowStart))
	first := sampleUsage(pid)
	last := first
	next := res.windowStart.Add(cpuSlice)
	var ghz []float64
	for {
		ghz = append(ghz, clockGHz())
		now := time.Now()
		if !now.Before(next) || !now.Before(res.windowEnd) {
			u := sampleUsage(pid)
			res.slices = append(res.slices, slice{end: now, usage: u.since(last), clockGHz: median(ghz)})
			last, ghz = u, nil
			next = now.Add(cpuSlice)
			if !now.Before(res.windowEnd) {
				break
			}
		}
		time.Sleep(min(probeGap, time.Until(next), time.Until(res.windowEnd)))
	}
	res.usage = last.since(first)
}

// cpuMcyclesPerJob is the median, over the slices of the measured window,
// of the daemons' CPU cycles per job that finished in the slice: their CPU
// time in it times its clock rate, in millions.
func cpuMcyclesPerJob(r *loadResult) float64 {
	var per []float64
	from := r.windowStart
	for _, s := range r.slices {
		var done float64
		for _, o := range r.jobs {
			if o.end.After(from) && !o.end.After(s.end) {
				done++
			}
		}
		if done > 0 {
			per = append(per, 1e3*s.usage.daemon.Seconds()*s.clockGHz/done)
		}
		from = s.end
	}
	return median(per)
}

// windowClockGHz is the median of the slices' clock rates.
func windowClockGHz(r *loadResult) float64 {
	ghz := make([]float64, len(r.slices))
	for i, s := range r.slices {
		ghz[i] = s.clockGHz
	}
	return median(ghz)
}
