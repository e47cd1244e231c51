"""Small helper process that runs the benchmark's requests.

On Linux a child's peak RSS, as os.wait4 reports it, is at least the peak
RSS of the process it was forked from. The benchmark's own process grows
while it checks outputs, so requests are spawned from this helper instead,
which stays small: then `peak_rss_mb` is the request's own.

Protocol, one request at a time over stdin/stdout: the client writes a JSON
line {"cmd": [...], "trace": bool}; the helper runs the command from the
current directory with the inherited environment, and answers with a JSON
line {"wall_s", "status", "maxrss_kb", "timed_out", "sizes"} followed by
the raw stdout, stderr and trace bytes whose lengths "sizes" gives. With
"trace" the command's third item is replaced by the number of a pipe file
descriptor the child may write its trace record to. The helper exits at
end of input.
"""

import json
import os
import selectors
import subprocess
import sys
from time import perf_counter


def spawn(cmd: list, trace: bool, timeout: float) -> tuple[dict, list[bytes]]:
    """Run one process to exit, reading its output as it comes; the wall time
    runs from spawn to reaping."""
    read_fd = write_fd = None
    if trace:
        read_fd, write_fd = os.pipe()
        cmd = cmd[:2] + [str(write_fd)] + cmd[3:]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=() if write_fd is None else (write_fd,))
    if write_fd is not None:
        os.close(write_fd)
    fds = [proc.stdout.fileno(), proc.stderr.fileno()] + ([read_fd] if trace else [])
    chunks = {fd: [] for fd in fds}
    deadline = start + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=1.0 if timed_out else remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if read_fd is not None:
        os.close(read_fd)
    blobs = [b"".join(chunks[fd]) for fd in fds] + ([] if trace else [b""])
    head = {"wall_s": wall, "status": proc.returncode, "maxrss_kb": usage.ru_maxrss,
            "timed_out": timed_out, "sizes": [len(b) for b in blobs]}
    return head, blobs


def main() -> int:
    timeout = float(sys.argv[1])
    out = sys.stdout.buffer
    for line in sys.stdin.buffer:
        job = json.loads(line)
        head, blobs = spawn(job["cmd"], job["trace"], timeout)
        out.write(json.dumps(head).encode() + b"\n")
        for blob in blobs:
            out.write(blob)
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
