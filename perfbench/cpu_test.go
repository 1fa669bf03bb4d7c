package main

import (
	"os"
	"os/exec"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestProcStatSelf(t *testing.T) {
	ppid, cpu, err := procStat(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if ppid != os.Getppid() {
		t.Fatalf("ppid %d, want %d", ppid, os.Getppid())
	}
	if cpu < 0 {
		t.Fatalf("negative CPU time %v", cpu)
	}
}

func TestProcessTreeFindsChild(t *testing.T) {
	cmd := exec.Command("sleep", "30")
	if err := cmd.Start(); err != nil {
		t.Skip("cannot start sleep:", err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()
	tree := processTree(os.Getpid())
	if tree[0] != os.Getpid() || !slices.Contains(tree, cmd.Process.Pid) {
		t.Fatalf("tree %v lacks self first and child %d", tree, cmd.Process.Pid)
	}
	if _, err := treeCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	if kb, err := vmHWM(cmd.Process.Pid); err != nil || kb <= 0 {
		t.Fatalf("child VmHWM %v KiB, err %v", kb, err)
	}
}

func TestCPUMcyclesPerJobIsMedianOverSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	r := &loadResult{windowStart: t0, slices: []slice{
		// 10 ms at 2 GHz for 2 jobs: 10 Mcycles each.
		{end: at(1000), usage: usage{daemon: 10 * time.Millisecond}, clockGHz: 2},
		// A slow second: 30 ms at 3 GHz for 3 jobs, 30 Mcycles each.
		{end: at(2000), usage: usage{daemon: 30 * time.Millisecond}, clockGHz: 3},
		// 8 ms at 2 GHz for 2 jobs: 8 Mcycles each.
		{end: at(3000), usage: usage{daemon: 8 * time.Millisecond}, clockGHz: 2},
	}}
	// The job ending after the last slice is not counted.
	for _, end := range []int{100, 1000, 1100, 1500, 1900, 2100, 2200, 3500} {
		r.jobs = append(r.jobs, outcome{end: at(end)})
	}
	if got := cpuMcyclesPerJob(r); got != 10 {
		t.Fatalf("cpuMcyclesPerJob = %v, want the median of 10, 30 and 8", got)
	}
}

func TestClockGHzIsPlausible(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if ghz := clockGHz(); ghz < 0.2 || ghz > 10 {
		t.Fatalf("clockGHz = %v, outside any x86 core's range", ghz)
	}
}
