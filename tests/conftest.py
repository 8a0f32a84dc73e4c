import json
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from rescue_triage.records import FeatureVector


def make_blobs(n=120, d=5, seed=0, sep=2.0, noise=1.0):
    """Two seeded gaussian clusters with a linear boundary; returns (X, y)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    margin = X @ w / np.linalg.norm(w)
    y = (margin + rng.normal(0.0, noise, n) > 0).astype(np.int64)
    X[y == 1] += sep * w / np.linalg.norm(w) * 0.5
    X[y == 0] -= sep * w / np.linalg.norm(w) * 0.5
    if len(np.unique(y)) < 2:  # extremely unlikely, keep both classes
        y[0] = 1 - y[0]
    return X, y


@pytest.fixture
def blobs():
    return make_blobs()


@pytest.fixture
def pool_map():
    """The map of a 2-worker fork pool, the kind a pipeline stage opens."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("fork")) as pool:
        yield pool.map


def _case(bp, rr, circ, gcs, pulse, mental, psy, alc, intox):
    return FeatureVector(
        gcs=float(gcs),
        circulation_normal=float(circ),
        systolic_bp=float(bp),
        pulse_rhythm_regular=float(pulse),
        respiratory_rate=float(rr),
        preillness=0.0,
        intoxication=float(intox),
        alcoholism=float(alc),
        mental_abnormality=float(mental),
        psychiatric_symptoms=float(psy),
    )


# six recorded reference cases: feature vectors plus the classifier and LLM
# verdicts they produced (True = recognized as psychiatric)
REFERENCE_CASES = {
    "Test1": (_case(130, 16, 1, 12, 0, 0, 0, 1, 1), True, False),
    "Test2": (_case(100, 14, 1, 15, 0, 0, 0, 0, 0), False, False),
    "Test3": (_case(142, 15, 0, 15, 0, 0, 1, 0, 0), True, True),
    "Test4": (_case(158, 12, 0, 12, 0, 0, 0, 0, 0), False, False),
    "Test5": (_case(130, 16, 0, 15, 0, 1, 1, 0, 0), True, True),
    "Test6": (_case(180, 16, 0, 14, 0, 0, 0, 0, 0), False, False),
}


GOLDEN_PROMPT = (
    "'Systolic Blood Pressure': 170,\n"
    "'Respiratory Rate': 13,\n"
    "'Blood Circulation Normality': 1,\n"
    "'GCS': 15,\n"
    "'Pulse Rhythm': False,\n"
    "'Any Preillness': False,\n"
    "'Mental Sickness Possibility': False,\n"
    "'Psychiatric Syndrom Presence': False,\n"
    "'Alcoholic Possibility': False,\n"
    "'Intoxication Possibility': False\n"
    "\n"
    "Based on the above data collected from patient, please reply with true or "
    "false if the patient can be diagnosed as psychiatric patient"
)


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
