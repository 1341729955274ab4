"""Serve-protocol client and the open-loop load generator of perfbench.

One thread drives everything through a selector: requests are sent when
they fall due and a connection slot is free (at most MAX_CONNECTIONS open
at once, one request per connection as the daemon expects), responses are
read as they arrive. Times come from time.monotonic_ns (the steady clock),
so latency has microsecond resolution regardless of the daemon's
millisecond `wall_us`.

Wire format (net/frame.hpp + serve/protocol.hpp, little-endian hosts):
a 24-byte header (magic u32, type u32, seq u64, payload words u64) and
64-bit payload words; strings are a length word plus zero-padded bytes.
"""

import selectors
import socket
import struct
import time

FRAME_MAGIC = 0x44534E54
FRAME_REQUEST = 9
FRAME_RESPONSE = 10
SERVE_VERSION = 1
STATUS_NAMES = {0: "ok", 1: "rejected", 2: "error"}
MAX_CONNECTIONS = 4
HEADER = struct.Struct("<IIQQ")


def pack_string(text):
    raw = text.encode()
    padded = raw + b"\0" * (-len(raw) % 8)
    return [len(raw)] + list(struct.unpack("<%dQ" % (len(padded) // 8), padded))


def encode_request(req_id, algo, seed, params):
    words = [SERVE_VERSION, req_id, seed, len(params)] + pack_string(algo)
    for key, value in params:
        words += pack_string(key) + pack_string(value)
    payload = struct.pack("<%dQ" % len(words), *words)
    return HEADER.pack(FRAME_MAGIC, FRAME_REQUEST, 0, len(words)) + payload


def decode_response(buf):
    """Returns (response dict, bytes consumed) or (None, 0) while the frame
    is incomplete. Raises ValueError on a malformed frame."""
    if len(buf) < HEADER.size:
        return None, 0
    magic, ftype, _, nwords = HEADER.unpack_from(buf)
    if magic != FRAME_MAGIC or ftype != FRAME_RESPONSE:
        raise ValueError("unexpected frame (magic %x, type %d)" % (magic, ftype))
    size = HEADER.size + 8 * nwords
    if len(buf) < size:
        return None, 0
    words = struct.unpack_from("<%dQ" % nwords, buf, HEADER.size)
    if nwords < 7 or words[0] != SERVE_VERSION:
        raise ValueError("malformed response payload")
    brief_len = words[6]
    brief = struct.pack("<%dQ" % (nwords - 7), *words[7:])[:brief_len].decode(
        errors="replace")
    return {
        "id": words[1],
        "status": STATUS_NAMES.get(words[2], "error"),
        "digest": "%x" % words[3],
        "rounds": words[4],
        "wall_us": words[5],
        "brief": brief,
    }, size


class _Call:
    __slots__ = ("req", "sock", "buf", "send_ns", "deadline_ns")


def run(port, requests, start_ns, timeout_s=10.0, max_connections=MAX_CONNECTIONS):
    """Sends `requests` (dicts with id, due_s, algo, seed, params; due_s is
    relative to `start_ns`) to the daemon on `port` and returns one record
    per request: due/send/done ns, status, digest, rounds, wall_us, error.
    A request unanswered within `timeout_s` of its send is a failure."""
    pending = sorted(requests, key=lambda r: r["due_s"])
    pending.reverse()  # pop() takes the earliest
    inflight = {}
    records = []
    sel = selectors.DefaultSelector()

    def finish(call, now, response=None, error=None):
        sel.unregister(call.sock)
        call.sock.close()
        del inflight[call.sock]
        rec = {
            "id": call.req["id"],
            "algo": call.req["algo"],
            "seed": call.req["seed"],
            "params": call.req["params"],
            "due_ns": start_ns + int(call.req["due_s"] * 1e9),
            "send_ns": call.send_ns,
            "done_ns": now,
            "status": "error",
            "error": error,
        }
        if response is not None:
            rec.update(response)
            if response["id"] != call.req["id"]:
                rec["status"], rec["error"] = "error", "id mismatch"
        records.append(rec)

    try:
        while pending or inflight:
            now = time.monotonic_ns()
            while (pending and len(inflight) < max_connections
                   and start_ns + int(pending[-1]["due_s"] * 1e9) <= now):
                req = pending.pop()
                call = _Call()
                call.req, call.buf = req, b""
                call.send_ns = time.monotonic_ns()
                call.deadline_ns = call.send_ns + int(timeout_s * 1e9)
                try:
                    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout_s)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    sock.sendall(encode_request(req["id"], req["algo"], req["seed"],
                                                req["params"]))
                    sock.setblocking(False)
                except OSError as exc:
                    records.append({"id": req["id"], "algo": req["algo"],
                                    "seed": req["seed"], "params": req["params"],
                                    "due_ns": start_ns + int(req["due_s"] * 1e9),
                                    "send_ns": call.send_ns,
                                    "done_ns": time.monotonic_ns(),
                                    "status": "error", "error": str(exc)})
                    continue
                call.sock = sock
                inflight[sock] = call
                sel.register(sock, selectors.EVENT_READ, call)
                now = time.monotonic_ns()
            wake = [c.deadline_ns for c in inflight.values()]
            if pending and len(inflight) < max_connections:
                wake.append(start_ns + int(pending[-1]["due_s"] * 1e9))
            wait = max(0.0, (min(wake) - now) / 1e9) if wake else 0.0
            events = sel.select(timeout=wait) if inflight else ()
            for key, _ in events:
                call = key.data
                try:
                    chunk = call.sock.recv(65536)
                except BlockingIOError:
                    continue
                except OSError as exc:
                    finish(call, time.monotonic_ns(), error=str(exc))
                    continue
                if not chunk:
                    finish(call, time.monotonic_ns(), error="connection closed")
                    continue
                call.buf += chunk
                try:
                    response, _ = decode_response(call.buf)
                except ValueError as exc:
                    finish(call, time.monotonic_ns(), error=str(exc))
                    continue
                if response is not None:
                    finish(call, time.monotonic_ns(), response=response)
            if not inflight and pending:
                delay = (start_ns + int(pending[-1]["due_s"] * 1e9) - time.monotonic_ns()) / 1e9
                if delay > 0:
                    time.sleep(delay)
            now = time.monotonic_ns()
            for call in [c for c in inflight.values() if c.deadline_ns <= now]:
                finish(call, now, error="timed out")
    finally:
        for call in list(inflight.values()):
            finish(call, time.monotonic_ns(), error="aborted")
        sel.close()
    records.sort(key=lambda r: r["due_ns"])
    return records
