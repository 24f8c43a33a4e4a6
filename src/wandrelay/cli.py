"""Operator command line: serve | send | simulate | report | validate.

Exit codes: 0 success, 1 input/scenario error, 2 internal error. Every
failure prints one greppable line to stderr: ``error: <Code>: <detail>``.

The simulator and the analytics are imported only by the commands that use
them, so a ``serve`` (re)start does not pay for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import signal
import sys
from pathlib import Path

from . import protocol
from .errors import DataDirUnwritable, ParseError, ServerUnreachable, WandRelayError
from .model import (
    MarkerCondition,
    Geofence,
    Specificity,
    TimeWindow,
    TriggerSchedule,
    compose,
    message_to_dict,
    voice_note_from_dict,
)
from .server import WandRelayServer, WireClient
from .service import DeliveryService
from .storage import FileStore
from .timeutil import parse_rfc3339


def _data_dir(args: argparse.Namespace) -> Path | None:
    raw = args.data_dir or os.environ.get("WANDRELAY_DATA_DIR")
    return Path(raw) if raw else None


def _parse_listen(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not (sep and port.isdecimal() and len(port) <= 5 and int(port) <= 65535):
        raise ParseError(f"expected HOST:PORT with a port in 0-65535, got {value!r}")
    return host or "127.0.0.1", int(port)


def cmd_serve(args: argparse.Namespace) -> int:
    data_dir = _data_dir(args)
    if data_dir is None:
        raise DataDirUnwritable("serve requires --data-dir or WANDRELAY_DATA_DIR")
    host, port = _parse_listen(args.listen)
    markers = None
    if args.markers:
        from . import sim

        doc = sim.load_json_object(args.markers)
        try:
            markers = {str(m["marker_id"]) for m in doc["markers"]}
        except (KeyError, TypeError):
            raise ParseError(f"{args.markers}: expected a markers list of {{marker_id}} objects") from None
    service = DeliveryService(FileStore(data_dir), declared_markers=markers)
    server = WandRelayServer(host, port, service)
    # Either signal interrupts serve_forever where it waits, so the exit
    # (and the snapshot) starts at once.
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.default_int_handler)
    try:
        print(f"ready {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()  # closes the service too, after any running request
    return 0


def _schedule_from_flags(args: argparse.Namespace) -> TriggerSchedule | None:
    geofence = window = marker = None
    if args.geofence:
        try:
            lat, lon, radius = (float(part) for part in args.geofence.split(","))
        except ValueError:
            raise ParseError(f"--geofence expects LAT,LON,RADIUS, got {args.geofence!r}") from None
        geofence = Geofence(lat=lat, lon=lon, radius=radius)
    if args.window:
        start, sep, end = args.window.partition("..")
        if not sep:
            raise ParseError(f"--window expects START..END, got {args.window!r}")
        window = TimeWindow(start=parse_rfc3339(start), end=parse_rfc3339(end))
    if args.marker:
        marker = MarkerCondition(marker_id=args.marker)
    if geofence is None and window is None and marker is None:
        return None
    return TriggerSchedule(
        geofence=geofence,
        window=window,
        marker=marker,
        specificity=Specificity(args.specificity),
    )


def cmd_send(args: argparse.Namespace) -> int:
    host, port = _parse_listen(args.connect)
    note = voice_note_from_dict({"duration": args.note_duration, "transcript": args.note})
    message = compose(
        args.sender, args.recipient, args.content, args.scale, note, _schedule_from_flags(args)
    )
    try:
        with WireClient(host, port) as client:
            response = client.hello("sender", args.sender)
            if response["kind"] != protocol.ERROR:
                submit = {"message": message_to_dict(message)}
                response = client.request(protocol.make_frame(protocol.SUBMIT, submit, sender=args.sender))
    except OSError as exc:  # nobody listens there, or the connection closed or reset before the answer
        raise ServerUnreachable(exc.strerror or str(exc)) from None
    if response["kind"] == protocol.ERROR:
        raise _wire_error(response["payload"])
    print(protocol.dumps_canonical(response["payload"]))
    return 0


def _wire_error(payload: dict) -> WandRelayError:
    err = WandRelayError(payload.get("detail", ""))
    err.code = payload.get("code", "InternalError")
    return err


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import sim

    scenario = sim.load_scenario(args.scenario)
    if args.seed_override is not None:
        scenario = dataclasses.replace(scenario, seed=args.seed_override)
    out = Path(args.out) if args.out else Path(f"{Path(args.scenario).stem}.runlog.ndjson")
    data_dir = _data_dir(args)
    store = FileStore(data_dir) if data_dir else None
    sim.run(scenario, store=store, log_path=out)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from . import analytics

    try:
        report = analytics.summarize_paths(args.logs)
    except OSError as exc:
        raise ParseError(f"cannot read {exc.filename}: {exc.strerror}") from None
    rendered = analytics.render_csv(report) if args.format == "csv" else analytics.render_text(report)
    if args.out:
        Path(args.out).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from . import sim

    scenario = sim.load_scenario(args.scenario)
    print(
        f"ok: {scenario.name}: {len(scenario.recipients)} recipient(s), "
        f"{len(scenario.sender_script)} message(s), {len(scenario.markers)} marker(s)"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wandrelay")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the delivery service")
    serve.add_argument("--listen", default="127.0.0.1:7707")
    serve.add_argument("--data-dir")
    serve.add_argument("--markers", help="JSON file declaring the known marker set")
    serve.set_defaults(func=cmd_serve)

    send = sub.add_parser("send", help="submit one message over the wire")
    send.add_argument("--connect", default="127.0.0.1:7707")
    send.add_argument("--sender", required=True)
    send.add_argument("--recipient", required=True)
    send.add_argument("--content", required=True)
    send.add_argument("--scale", type=float, default=1.0)
    send.add_argument("--note", default="")
    send.add_argument("--note-duration", type=float, default=1.0)
    send.add_argument("--geofence", help="LAT,LON,RADIUS")
    send.add_argument("--window", help="START..END (RFC 3339)")
    send.add_argument("--marker")
    send.add_argument("--specificity", choices=[s.value for s in Specificity], default="Specific")
    send.set_defaults(func=cmd_send)

    simulate = sub.add_parser("simulate", help="run a scenario and write its log")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out")
    simulate.add_argument("--data-dir")
    simulate.add_argument("--seed-override", type=int)
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser("report", help="render deliverability statistics from run logs or data dirs")
    report.add_argument("logs", nargs="+", help="run log files, or data dirs")
    report.add_argument("--format", choices=["text", "csv"], default="text")
    report.add_argument("--out")
    report.set_defaults(func=cmd_report)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--scenario", required=True)
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except WandRelayError as exc:
        print(f"error: {exc.code}: {exc.detail}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"error: InternalError: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
