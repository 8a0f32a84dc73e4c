import json
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from support import make_blobs


@pytest.fixture
def blobs():
    return make_blobs()


@pytest.fixture
def pool_map():
    """The map of a 2-worker fork pool, the kind a pipeline stage opens."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.map


# ---------------------------------------------------------------------------
# stub generate endpoint


class _StubState:
    def __init__(self):
        self.requests = []
        self.fail_first = 0
        self.delay = 0.0
        self.responses = ["true"]
        self.counter = 0
        self.reply = None  # (status, body bytes) sent in place of a verdict


def _make_handler(state: _StubState):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            try:
                self._reply()
            except (BrokenPipeError, ConnectionResetError):
                pass  # the client gave up (a timeout test) before the reply was written

        def _reply(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            state.requests.append({"path": self.path, "payload": payload})
            if state.delay:
                time.sleep(state.delay)
            if state.fail_first > 0:
                state.fail_first -= 1
                self.send_response(503)
                self.end_headers()
                return
            if state.reply is not None:
                status, body = state.reply
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                return
            text = state.responses[min(state.counter, len(state.responses) - 1)]
            state.counter += 1
            body = json.dumps({"model": payload.get("model"), "response": text}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    return Handler


@pytest.fixture
def stub_server():
    state = _StubState()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(state))
    # a short poll interval, so shutdown() at teardown returns quickly
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    yield url, state
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
