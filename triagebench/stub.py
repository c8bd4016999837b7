"""Chat-completions stub for the live workload, run as its own process.

It answers every request with the scripted policy after a fixed delay,
which is then the only latency a live run sees. Each request is served on
its own thread, so concurrent callers are never serialised here. It counts
the completions it serves; GET /stats returns the count, so a retry the
client hides from its ledger still shows.

Usage: python3 triagebench/stub.py --root <checkout>
Prints `port <n>` once it listens on 127.0.0.1.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

DELAY_MS = 50  # the ROADMAP live baseline's per-request latency


def tier_of(messages: list[tuple[str, str]]) -> str:
    # trace sessions open with the forensic system prompt; the verdict
    # payload is the only one carrying candidate vectors
    if messages and messages[0][0] == "system":
        return "trace"
    return "verdict" if '"vectors":' in messages[-1][1] else "recon"


def make_server() -> ThreadingHTTPServer:
    from droidtriage.scripted import ScriptedProvider

    scripted = ScriptedProvider()
    lock = threading.Lock()
    served = [0]

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802  (http.server API)
            time.sleep(DELAY_MS / 1000.0)
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            messages = [(m["role"], m["content"]) for m in request["messages"]]
            text, in_tok, out_tok = scripted.chat(request["model"], tier_of(messages), messages)
            with lock:
                served[0] += 1
            self._reply({
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": in_tok, "completion_tokens": out_tok},
            })

        def do_GET(self):  # noqa: N802
            with lock:
                count = served[0]
            self._reply({"requests": count})

        def _reply(self, obj) -> None:
            body = json.dumps(obj).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    return server


def start(root: Path) -> tuple[subprocess.Popen, str]:
    """Launch the stub in its own process; returns it and its base URL."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--root", str(root)],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("port "):
        stop(proc)
        raise RuntimeError(f"live stub did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}/v1"


def served(base_url: str) -> int:
    """Completions the stub has answered so far."""
    with urllib.request.urlopen(base_url + "/stats", timeout=10) as resp:
        return json.loads(resp.read())["requests"]


def stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.root) / "src"))
    server = make_server()
    print(f"port {server.server_port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
