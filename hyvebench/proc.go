package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one started program with its stderr kept for diagnostics.
type proc struct {
	name   string
	cmd    *exec.Cmd
	stderr *timedBuffer
	start  time.Time
	done   chan struct{}
	err    error
	wall   time.Duration
}

// startProc starts a program. Its stdout goes to stdout (nil = discarded).
func startProc(ctx context.Context, path string, args []string, stdout *timedBuffer) (*proc, error) {
	p := &proc{name: path, done: make(chan struct{}), stderr: &timedBuffer{}}
	p.cmd = exec.CommandContext(ctx, path, args...)
	p.cmd.Stderr = p.stderr
	if stdout != nil {
		p.cmd.Stdout = stdout
	}
	p.cmd.WaitDelay = 5 * time.Second
	p.start = time.Now()
	if stdout != nil {
		stdout.start = p.start
	}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		p.err = p.cmd.Wait()
		p.wall = time.Since(p.start)
		close(p.done)
	}()
	return p, nil
}

// wait blocks until the program has exited and reports a non-zero exit
// as an error carrying the end of its stderr.
func (p *proc) wait() error {
	<-p.done
	if p.err != nil {
		return fmt.Errorf("%s: %v: %s", p.name, p.err, tail(string(p.stderr.bytes()), 400))
	}
	return nil
}

// stop asks a running program to exit (SIGTERM), then waits for it.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	<-p.done
}

// cpu is the user+system time of an exited program.
func (p *proc) cpu() time.Duration {
	st := p.cmd.ProcessState
	if st == nil {
		return 0
	}
	return st.UserTime() + st.SystemTime()
}

// maxRSSMB is the peak resident set of an exited program.
func (p *proc) maxRSSMB() float64 {
	if st := p.cmd.ProcessState; st != nil {
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			return float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return 0
}

// procCPU reads a running process's user+system time from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// procRSSMB reads a running process's resident set from /proc.
func procRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timedBuffer collects a program's stdout and records when each byte
// arrived, so the delivery time of every document can be recovered.
type timedBuffer struct {
	mu    sync.Mutex
	start time.Time
	buf   bytes.Buffer
	marks []mark
}

type mark struct {
	end int // buffer length after the write
	at  time.Duration
}

func (b *timedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, _ := b.buf.Write(p)
	b.marks = append(b.marks, mark{b.buf.Len(), time.Since(b.start)})
	return n, nil
}

// deliveries returns, for each newline-terminated document in the
// output, how long after the start its last byte arrived.
func (b *timedBuffer) deliveries() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []time.Duration
	data := b.buf.Bytes()
	m := 0
	for i, c := range data {
		if c != '\n' {
			continue
		}
		for m < len(b.marks) && b.marks[m].end <= i {
			m++
		}
		if m < len(b.marks) {
			out = append(out, b.marks[m].at)
		}
	}
	return out
}

// bytes returns a copy of everything written so far.
func (b *timedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func tail(s string, n int) string {
	s = strings.TrimSpace(s)
	if len(s) > n {
		return "…" + s[len(s)-n:]
	}
	return s
}
