"""OpenAI-compatible chat-completions stub for the live-latency workload.

    python3 perfbench/stub.py --replies DIR/replies.json --port-file DIR/port

Listens on 127.0.0.1 on a free port and writes the port number to
``--port-file`` once it accepts connections. Each POST answers from the
prompt alone: the reply of the first table entry whose ``when`` parts all
occur in the last message, after sleeping ``DELAY_S`` (10 ms), so the same
prompt always gets the same reply. Usage counts are whitespace tokens.
``GET /stats`` returns how many completions were served. A prompt that no
entry matches is answered with HTTP 400 and not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

# Seconds waited per completion, so that backend waits are most of detect.
DELAY_S = 0.01


class Stub:
    def __init__(self, table: list[dict]) -> None:
        self.table = [(e["when"], e["response"]) for e in table]
        self.served = 0
        self._lock = threading.Lock()

    def reply(self, prompt: str) -> str | None:
        for parts, response in self.table:
            if all(part in prompt for part in parts):
                return response
        return None

    def count(self) -> None:
        with self._lock:
            self.served += 1


def make_handler(stub: Stub):
    class Handler(BaseHTTPRequestHandler):
        def _send(self, status: int, doc: dict) -> None:
            body = json.dumps(doc).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 (http.server naming)
            if self.path == "/stats":
                self._send(200, {"served": stub.served})
            else:
                self._send(404, {"error": "not found"})

        def do_POST(self) -> None:  # noqa: N802
            length = int(self.headers.get("Content-Length", "0"))
            request = json.loads(self.rfile.read(length))
            prompt = request["messages"][-1]["content"]
            text = stub.reply(prompt)
            if text is None:
                self._send(400, {"error": "no reply entry matches the prompt"})
                return
            time.sleep(DELAY_S)
            stub.count()
            self._send(200, {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": len(prompt.split()),
                          "completion_tokens": len(text.split())},
            })

        def log_message(self, format: str, *args: object) -> None:
            pass

    return Handler


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chat-completions stub")
    parser.add_argument("--replies", required=True)
    parser.add_argument("--port-file", required=True)
    args = parser.parse_args(argv)
    stub = Stub(json.loads(Path(args.replies).read_text(encoding="utf-8")))
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(stub))
    server.daemon_threads = True
    port_file = Path(args.port_file)
    tmp = port_file.with_suffix(".tmp")
    tmp.write_text(str(server.server_address[1]), encoding="utf-8")
    os.replace(tmp, port_file)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
