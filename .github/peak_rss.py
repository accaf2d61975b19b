"""Runs a command and fails if its peak resident set exceeds a bound.

usage: python3 .github/peak_rss.py LABEL MAX_MB OUT ERR -- COMMAND [ARGS...]

The command's stdout and stderr go to the files OUT and ERR. The peak is
the child's own VmHWM, polled from /proc/<pid>/status until it exits, as
the benchmark harness reads it (benchmark/src/procfs.rs). Reading
ru_maxrss after fork/exec instead would fold the forked Python image
into the figure, so no reading could fall below about 9.5 MB.
"""

import os
import sys
import time


def vm_hwm_kb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0  # gone, or not yet readable


def main():
    label, max_mb, out, err, dashes, *command = sys.argv[1:]
    if dashes != "--" or not command:
        sys.exit(__doc__)
    # The child closes this pipe when it execs, so polling starts only once
    # the command, not the forked Python, owns the process.
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(ready_r)
        os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
        os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
        try:
            os.execvp(command[0], command)
        finally:
            os._exit(127)
    os.close(ready_w)
    os.read(ready_r, 1)
    peak_kb = 0
    while True:
        peak_kb = max(peak_kb, vm_hwm_kb(pid))
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.005)
    peak_mb = peak_kb / 1024
    print(f"{label}: peak RSS {peak_mb:.1f} MB (bound {max_mb} MB)")
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{label}: {command[0]} failed")
    if peak_mb > float(max_mb):
        sys.exit(f"{label}: peak RSS {peak_mb:.1f} MB exceeds the {max_mb} MB bound")


if __name__ == "__main__":
    main()
