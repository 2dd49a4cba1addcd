package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat and
// /proc/stat (USER_HZ, 100 on every Linux port Go supports).
const clockTick = 10 * time.Millisecond

// hostTicks reads the aggregate CPU line of /proc/stat and returns the
// steal ticks and the total of all ticks.
func hostTicks() (steal, total int64, err error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, fmt.Errorf("read /proc/stat: empty")
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("read /proc/stat: unexpected line %q", sc.Text())
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already inside user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("read /proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stealMeter measures the share of host CPU time the hypervisor stole
// between its start and a read.
type stealMeter struct{ steal, total int64 }

func startSteal() stealMeter {
	s, t, _ := hostTicks()
	return stealMeter{s, t}
}

func (m stealMeter) frac() float64 {
	s, t, err := hostTicks()
	if err != nil || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// selfCPU returns the user plus system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// childrenCPU returns the user plus system CPU time of every child
// process this process has reaped.
func childrenCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU returns the user plus system CPU time of process pid.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it start
	// past its closing parenthesis, with state as field 3.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("parse /proc/%d/stat: %d fields", pid, len(fields))
	}
	// utime and stime are fields 14 and 15 of the full line.
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: bad cpu times", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSSMB returns the peak resident set (VmHWM) of pid in MB.
func procPeakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// processAlive reports whether pid still exists (a zombie counts).
func processAlive(pid int) bool {
	return syscall.Kill(pid, 0) == nil
}

// processesRunning lists the live processes whose executable is one of
// paths.
func processesRunning(paths ...string) []int {
	entries, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		exe, err := os.Readlink(fmt.Sprintf("/proc/%d/exe", pid))
		if err != nil {
			continue
		}
		exe = strings.TrimSuffix(exe, " (deleted)")
		for _, p := range paths {
			if exe == p {
				pids = append(pids, pid)
			}
		}
	}
	return pids
}

// hostRecord describes the machine and the code a run measured, so that
// runs are compared like with like.
type hostRecord struct {
	cpu        string
	nproc      int
	gomaxprocs int
	goVersion  string
	commit     string
}

func readHost(srcRoot string) hostRecord {
	return hostRecord{
		cpu:        cpuModel(),
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		commit:     commitID(srcRoot),
	}
}

func (h hostRecord) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		h.cpu, h.nproc, h.gomaxprocs, h.goVersion, h.commit)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitID names the code under test: the VCS revision stamped into the
// binary when it was built in a git checkout, otherwise a digest of the
// Go sources and module files under srcRoot.
func commitID(srcRoot string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(srcRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != srcRoot && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); strings.HasSuffix(name, ".go") || name == "go.mod" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("src-%x", h.Sum(nil)[:6])
}
