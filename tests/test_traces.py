import hashlib
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csirecip import traces
from csirecip.chansim import gen_attacker, gen_pair, preset
from csirecip.errors import (
    EmptyTraceError,
    InvalidParameterError,
    MalformedHeaderError,
    NoOverlapError,
    RateMismatchError,
    SubcarrierOutOfRangeError,
    UnknownRateError,
)
from csirecip.traces import (
    CsiTrace,
    magnitude_series,
    pair_traces,
    parse_csi_csv,
    write_csi_csv,
)


def make_csv(rows, n_sub=2):
    header = "seq,t,dev," + ",".join(f"i{k},q{k}" for k in range(n_sub))
    return "\n".join([header] + rows) + "\n"


def row(seq, t, iq, dev="ap"):
    flat = ",".join(f"{float(np.real(c))!r},{float(np.imag(c))!r}" for c in iq)
    return f"{seq},{float(t)!r},{dev},{flat}"


def make_trace(seqs, values, device="ap", rate=10.0, subcarriers=1):
    seqs = np.asarray(seqs, dtype=np.int64)
    iq = np.repeat(np.asarray(values, dtype=np.complex128)[:, None], subcarriers, axis=1)
    return CsiTrace(device_id=device, subcarriers=subcarriers, rate_hz=rate,
                    seqs=seqs, t=seqs / rate, iq=iq)


class TestParse:
    def test_three_rows(self):
        text = make_csv([row(1, 0.1, [1 + 1j, 2 + 0j]),
                         row(2, 0.2, [0 + 1j, 1 + 1j]),
                         row(3, 0.3, [2 + 2j, 3 + 3j])])
        tr = parse_csi_csv(text)
        assert len(tr) == 3
        assert tr.subcarriers == 2
        assert list(tr.seqs) == [1, 2, 3]
        assert tr.device_id == "ap"

    def test_gap_recorded(self):
        text = make_csv([row(1, 0.1, [1, 1]), row(3, 0.3, [1, 1]),
                         row(4, 0.4, [1, 1])])
        tr = parse_csi_csv(text)
        assert len(tr) == 3
        assert list(tr.missing_seqs()) == [2]

    def test_missing_seqs_bounded_by_rows(self):
        # seqs 0 and 2**40 asked numpy for 8 TiB: a bare MemoryError
        bound = 2 * traces._MISSING_PER_ROW
        for last in (bound + 2, 2 ** 40):
            tr = CsiTrace("ap", 1, 10.0, [0, last], [0.0, 1.0], np.ones((2, 1)))
            with pytest.raises(InvalidParameterError) as exc:
                tr.missing_seqs()
            assert str(exc.value) == (f"2 rows with seqs 0..{last} miss more than "
                                      f"{traces._MISSING_PER_ROW} seqs per row")
        tr = CsiTrace("ap", 1, 10.0, [0, bound + 1], [0.0, 1.0], np.ones((2, 1)))
        assert tr.missing_seqs().tolist() == list(range(1, bound + 1))

    def test_equals_only_a_trace(self):
        text = make_csv([row(1, 0.1, [1, 1]), row(2, 0.2, [1, 1])])
        tr = parse_csi_csv(text)
        assert tr.__eq__(5) is NotImplemented
        assert tr != 5 and tr == parse_csi_csv(text)

    def test_duplicate_dropped_and_counted(self):
        # line-by-line oracle over the fixture: seqs 1,2,2,3 keep first of
        # each; one duplicate counted
        rows = [row(1, 0.1, [1, 1]), row(2, 0.2, [2 + 2j, 2]),
                row(2, 0.25, [9, 9]), row(3, 0.3, [3, 3])]
        tr = parse_csi_csv(make_csv(rows))
        assert len(tr) == 3
        assert tr.parse_stats["duplicates"] == 1
        assert tr.iq[1, 0] == 2 + 2j  # first occurrence kept

    def test_out_of_order_dropped(self):
        rows = [row(5, 0.5, [1, 1]), row(3, 0.3, [1, 1]), row(6, 0.6, [1, 1])]
        tr = parse_csi_csv(make_csv(rows))
        assert list(tr.seqs) == [5, 6]
        assert tr.parse_stats["out_of_order"] == 1

    def test_bad_iq_count_rejected_with_index(self):
        rows = [row(1, 0.1, [1, 1]), "2,0.2,ap,1.0", row(3, 0.3, [1, 1])]
        tr = parse_csi_csv(make_csv(rows))
        assert len(tr) == 2
        assert tr.parse_stats["bad_rows"] == [2]

    def test_seq_beyond_int64_rejected_with_index(self):
        rows = [row(1, 0.1, [1, 1]), row(2 ** 63, 0.2, [1, 1]), row(3, 0.3, [1, 1])]
        tr = parse_csi_csv(make_csv(rows))
        assert list(tr.seqs) == [1, 3]
        assert tr.parse_stats["bad_rows"] == [2]

    def test_malformed_header(self):
        with pytest.raises(MalformedHeaderError):
            parse_csi_csv("time,seq\n1,2\n")
        with pytest.raises(MalformedHeaderError):
            parse_csi_csv("")

    def test_empty_trace(self):
        with pytest.raises(EmptyTraceError):
            parse_csi_csv(make_csv([]))

    def test_accepts_bytes_and_streams(self):
        text = make_csv([row(1, 0.1, [1, 1]), row(2, 0.2, [1, 1])])
        assert len(parse_csi_csv(text.encode())) == 2
        assert len(parse_csi_csv(io.BytesIO(text.encode()))) == 2
        assert len(parse_csi_csv(io.StringIO(text))) == 2

    def test_rate_not_inferable_from_single_row(self):
        with pytest.raises(UnknownRateError, match="single row"):
            parse_csi_csv(make_csv([row(1, 0.1, [1, 1])]))

    def test_rate_not_inferable_when_t_does_not_increase(self):
        text = make_csv([row(1, 0.5, [1, 1]), row(2, 0.5, [1, 1]), row(3, 0.2, [1, 1])])
        with pytest.raises(UnknownRateError, match=r"t that does not increase \(0.5 to 0.2\)"):
            parse_csi_csv(text)

    def test_explicit_rate_parses_without_inference(self):
        single = parse_csi_csv(make_csv([row(1, 0.1, [1, 1])]), rate_hz=10.0)
        assert len(single) == 1 and single.rate_hz == 10.0
        flat = parse_csi_csv(make_csv([row(1, 0.5, [1, 1]), row(2, 0.5, [1, 1])]), rate_hz=4.0)
        assert list(flat.seqs) == [1, 2] and flat.rate_hz == 4.0

    def test_leading_bom_accepted(self):
        text = make_csv([row(1, 0.1, [1, 1]), row(2, 0.2, [2, 2])])
        for data in ("\ufeff" + text, text.encode("utf-8-sig")):
            tr = parse_csi_csv(data)
            assert list(tr.seqs) == [1, 2]
            assert write_csi_csv(tr) == text

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0])
    def test_given_rate_must_be_finite_and_positive(self, rate):
        # nan and inf used to give a trace with that rate
        text = make_csv([row(1, 0.1, [1, 1]), row(2, 0.2, [1, 1])])
        with pytest.raises(InvalidParameterError, match=f"rate_hz .*got {rate!r}") as err:
            parse_csi_csv(text, rate_hz=rate)
        assert isinstance(err.value, ValueError)

    @pytest.mark.parametrize("seqs, ts, rate", [
        ((1, 2), (-1e308, 1e308), 0.0),  # the t span overflows to inf
        ((0, 10 ** 18), (0.0, 5e-324), math.inf),
    ])
    def test_inferred_rate_must_be_finite_and_positive(self, seqs, ts, rate):
        # the first used to reach CsiTrace as rate 0
        text = make_csv([row(s, t, [1, 1]) for s, t in zip(seqs, ts)])
        with pytest.raises(UnknownRateError,
                           match=re.escape(f"over t {ts[0]!r} to {ts[1]!r} give rate {rate!r}")):
            parse_csi_csv(text)

    def test_roundtrip_bit_exact(self):
        rng = np.random.default_rng(7)
        rows = [row(s, s * 0.1, rng.normal(size=2) + 1j * rng.normal(size=2))
                for s in range(1, 40)]
        text = make_csv(rows)
        tr = parse_csi_csv(text)
        out = write_csi_csv(tr)
        assert out == text
        assert write_csi_csv(parse_csi_csv(out)) == out


class TestColumns:
    def test_columns_read_only(self):
        tr = make_trace([1, 2], [1, 2], subcarriers=3)
        assert tr.seqs.dtype == np.int64 and tr.t.dtype == np.float64
        assert tr.iq.dtype == np.complex128 and tr.iq.shape == (2, 3)
        for arr in (tr.seqs, tr.t, tr.iq):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("seqs, t, iq, match", [
        ([1, 1], [0.1, 0.2], np.ones((2, 1)), "strictly increasing"),
        ([2, 1], [0.1, 0.2], np.ones((2, 1)), "strictly increasing"),
        ([1, 2], [0.1], np.ones((2, 1)), "one length"),
        ([1, 2], [0.1, 0.2], np.ones((2, 2)), "one length"),
        ([1, 2], [0.1, np.inf], np.ones((2, 1)), "at seq 2"),
    ])
    def test_invalid_columns_rejected(self, seqs, t, iq, match):
        with pytest.raises(ValueError, match=match):
            CsiTrace("ap", 1, 10.0, seqs, t, iq)

    @pytest.mark.parametrize("iq, seq", [([np.nan, 1, np.inf], 4), ([1, 1, 1j * np.inf], 6)])
    def test_non_finite_iq_rejected_naming_seq(self, iq, seq):
        # write_csi_csv would write nan/inf rows that parse_csi_csv drops as bad rows
        with pytest.raises(ValueError, match=f"non-finite i/q value at seq {seq}"):
            CsiTrace("ap", 1, 10.0, [4, 5, 6], [0.4, 0.5, 0.6], np.reshape(iq, (3, 1)))

    def test_full_int64_span_accepted(self):
        tr = CsiTrace("ap", 1, 10.0, [-2 ** 63, 0, 2 ** 63 - 1], [0.0, 0.1, 0.2], np.ones((3, 1)))
        assert len(tr) == 3

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError, match="rate_hz"):
            CsiTrace("ap", 1, 0.0, [1], [0.1], np.ones((1, 1)))

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rate_must_be_finite(self, rate):
        # accepted before; the message also names the value now
        with pytest.raises(InvalidParameterError, match=f"rate_hz .*got {rate!r}"):
            CsiTrace("ap", 1, rate, [1], [0.1], np.ones((1, 1)))

    @pytest.mark.parametrize("dev", ["a,b", "a\nb", "a\rb"])
    def test_device_id_breaking_csv_rows_rejected(self, dev):
        with pytest.raises(ValueError, match=re.escape(repr(dev))):
            make_trace([1, 2], [1, 2], device=dev)

    def test_carriage_return_in_dev_is_bad_row(self):
        tr = parse_csi_csv(make_csv([row(1, 0.1, [1, 1], dev="a\rb"), row(2, 0.2, [1, 1])]),
                           rate_hz=10.0)
        assert tr.parse_stats["bad_rows"] == [1]
        assert list(tr.seqs) == [2]


class TestEquality:
    def test_equal_traces(self):
        cfg = preset("los-short", duration_s=30.0, seed=1)
        a, _, _ = gen_pair(cfg)
        a2, _, _ = gen_pair(cfg)
        assert a is not a2
        assert a == a2 and not a != a2
        # parse_stats is not compared
        assert parse_csi_csv(write_csi_csv(a), rate_hz=a.rate_hz) == a

    def test_one_iq_value_changed(self):
        a, _, _ = gen_pair(preset("los-short", duration_s=30.0, seed=1))
        iq = a.iq.copy()
        iq[7, 3] += 1e-9
        b = CsiTrace(a.device_id, a.subcarriers, a.rate_hz, a.seqs, a.t, iq)
        assert a != b and not a == b


# sha256 of the CSVs the per-packet trace implementation wrote for these
# traces; the columnar one must write the same bytes
GOLDEN_CSV_SHA256 = {
    "ap": "cdb06214e98bdd2ea796146099493ea73ad560fd05596144922769767eda340e",
    "sta": "c1ba05cf23eee1a5cf88ead4b3f7eb0b2146b43b544460edc3de7c93d3d8ea6e",
    "attacker": "5dc93cf302e7c14d6fa6828ea4222aa4f9495f0a99aafa9aa8813933beeea32c",
}


def test_simulated_csv_bytes_pinned():
    cfg = preset("nlos-long", 600, seed=3)
    ap, sta, _ = gen_pair(cfg)
    attacker = gen_attacker(cfg, "delayed_replay", gap_s=30)
    got = {name: hashlib.sha256(write_csi_csv(tr).encode()).hexdigest()
           for name, tr in (("ap", ap), ("sta", sta), ("attacker", attacker))}
    assert got == GOLDEN_CSV_SHA256


@st.composite
def columnar_trace(draw):
    """Gapped seqs anywhere in int64, 1-8 subcarriers, any finite floats."""
    offsets = sorted(draw(st.sets(st.integers(0, 300), min_size=1, max_size=40)))
    base = draw(st.integers(-2 ** 63, 2 ** 63 - 1 - 300))
    n, n_sub = len(offsets), draw(st.integers(1, 8))
    floats = st.just(-0.0) | st.floats(allow_nan=False, allow_infinity=False)
    t = draw(arrays(np.float64, n, elements=floats))
    iq = draw(arrays(np.float64, (n, 2 * n_sub), elements=floats)).view(np.complex128)
    dev = draw(st.text(alphabet="abc-_0", max_size=6))
    return CsiTrace(dev, n_sub, 10.0, np.array(offsets, dtype=np.int64) + base, t, iq)


@settings(max_examples=60, deadline=None)
@given(columnar_trace())
@example(CsiTrace("ap", 2, 10.0, [-2 ** 63, -2 ** 63 + 3], [-0.0, 1e308],
                  np.array([[-0.0, -0.0, 5e-324, -1.7976931348623157e308],
                            [-0.0, 1.0, 0.0, -0.0]]).view(np.complex128)))
def test_write_parse_write_byte_identical(tr):
    text = write_csi_csv(tr)
    back = parse_csi_csv(text, rate_hz=tr.rate_hz)  # t is arbitrary here
    assert write_csi_csv(back) == text
    seqs = tr.seqs.tolist()
    assert back.missing_seqs().tolist() == sorted(set(range(seqs[0], seqs[-1] + 1)) - set(seqs))


# --- the columnar pass against the row loop ---------------------------------

# Spellings int()/float() and numpy's reader both accept, with equal values.
SEQ_BOTH = [str, lambda n: f"{n:+}", lambda n: f" {n}\t", lambda n: f"{n:03}"]
FLOAT_BOTH = [repr, lambda v: f"\t{v!r} ", lambda v: f"{v:+e}", lambda v: f"{v:.3g}"]
# Odd spellings: most are rejected by one parser or both, or are not finite.
SEQ_TRAPS = ["5.0", "5e0", str(2 ** 63), str(-2 ** 63 - 1), str(-2 ** 63), "1_0", "٥",
             "5Ǿ", "\x1c5", "", " ", "-0", "0x5"]
FLOAT_TRAPS = ["nan", "inf", "-Infinity", "1e400", "1e-400", "-0", ".5", "5.", "1_0",
               "١.5", "１", "1.0#x", "", " ", "0x10", "1.0\x00", "\x1f1.0",
               "1.0\x0b", "1.0\x85", "1.0 ", "1.0\u3000", "1e", "nan(1)"]
# Spellings both read alike as values that are not finite: such a row is bad.
NON_FINITE = ["nan", "-inf", "Infinity", "+NaN"]


def csv_text(n_sub, rows, eol="\n", bom=""):
    header = "seq,t,dev," + ",".join(f"i{k},q{k}" for k in range(n_sub))
    return bom + eol.join([header, *rows]) + eol


@st.composite
def fuzzed_csv(draw):
    """CSV text whose rows mix clean spellings with every trap, some rows holding a value
    that is not finite; with ``clean`` drawn true, only spellings both parsers read
    alike, so the columnar pass mostly accepts."""
    clean = draw(st.booleans())
    n_sub = draw(st.integers(1, 3))
    floats = st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([-0.0, 5e-324, 1e308])
    seq_field = st.builds(lambda f, n: f(n), st.sampled_from(SEQ_BOTH), st.integers(-3, 30))
    float_field = st.builds(lambda f, v: f(v), st.sampled_from(FLOAT_BOTH), floats)
    dev = draw(st.sampled_from(["ap", "sta-1", ""]))
    dev_field = st.sampled_from([dev, "sta"]) if draw(st.booleans()) else st.just(dev)
    if not clean:
        seq_field |= st.sampled_from(SEQ_TRAPS)
        float_field |= st.sampled_from(FLOAT_TRAPS)
        dev_field |= st.sampled_from(["a\rb", "α"])
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        fields = [draw(seq_field), draw(float_field), draw(dev_field),
                  *(draw(float_field) for _ in range(2 * n_sub))]
        if draw(st.integers(0, 3)) == 0:
            fields[draw(st.sampled_from([1, *range(3, len(fields))]))] = draw(
                st.sampled_from(NON_FINITE))
        line = ",".join(fields)
        if not clean:
            edit = draw(st.sampled_from(["none", "none", "drop", "extra", "comma", "cr", "blank"]))
            if edit == "drop":
                line = line.rsplit(",", 1)[0]
            elif edit == "extra":
                line += ",1.0"
            elif edit == "comma":
                line += ","
            elif edit == "cr":  # a lone \r inside the row
                k = draw(st.integers(0, len(line)))
                line = line[:k] + "\r" + line[k:]
            elif edit == "blank":
                rows.append(draw(st.sampled_from(["", " ", "\t", "\x0b", "\r"])))
        rows.append(line)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return csv_text(n_sub, rows, eol, bom=draw(st.sampled_from(["", "\ufeff"])))


def outcome(text):
    """parse_csi_csv's trace, every bit of it, or its exception's type and message."""
    try:
        tr = parse_csi_csv(text)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome compared
        return type(e), str(e)
    return (tr.device_id, tr.subcarriers, repr(tr.rate_hz), tr.parse_stats,
            *(a.tobytes() for a in (tr.seqs, tr.t, tr.iq)))


def parse_both_ways(text):
    """parse_csi_csv's outcome as it stands and with the row loop alone, and what the
    columnar pass and the row loop returned on the way."""
    seen = {}

    def spy(name):
        real = getattr(traces, name)

        def call(*args):
            seen["body"] = args[-2]  # both passes take the body lines, then n_sub
            seen[name] = real(*args)
            return seen[name]
        return call

    with mock.patch.object(traces, "_parse_columns", spy("_parse_columns")):
        got = outcome(text)
    with mock.patch.object(traces, "_parse_columns", lambda *args: None), \
            mock.patch.object(traces, "_parse_rows", spy("_parse_rows")):
        want = outcome(text)
    return got, want, seen.get("body"), seen.get("_parse_columns"), seen.get("_parse_rows")


def _columns_key(body, parsed):
    """The row rule applied to one pass's raw columns of the lines ``body``."""
    seqs, t, iq, device_id, stats = traces._keep_rows(body, *parsed)
    return ([(a.dtype, a.shape, a.tobytes()) for a in (seqs, t, iq)], device_id, stats)


@settings(max_examples=300, deadline=None)
@given(fuzzed_csv())
@example(csv_text(1, ["1,0.1,ap,1.0,2.0,", "2,0.2,ap,1.0,2.0"]))  # a trailing comma
@example(csv_text(1, ["1,0.1,ap,1.0,2.0,3.0", "2,0.2,ap,1.0,2.0"]))  # an extra field
@example(csv_text(1, ["1,0.1,ap,1.0,2.0#x", "2,0.2,ap,1.0,2.0"]))  # a comment mark
@example(csv_text(1, ["1,nan,ap,inf,2.0", "2,0.2,ap,Infinity,2.0"]))  # not finite
@example(csv_text(1, ["1,0.1,ap,1.0,2.0", " \t ", "2,0.2,ap,1.0,2.0"]))  # whitespace line
@example(csv_text(1, ["1_0,0.1,ap,1_0,2.0", "11,0.2,ap,1.0,2.0"]))  # underscores
@example(csv_text(1, ["١,0.1,ap,١.5,2.0", "2,0.2,ap,1.0,2.0"]))  # non-ASCII digits
@example(csv_text(1, ["5Ǿ,0.1,ap,1.0,2.0", "2,0.2,ap,1.0,2.0"]))  # numpy reads U+01FE as a digit
@example(csv_text(1, ["\x1c1,0.1,ap,1.0,2.0\x1f", "2,0.2,ap,1.0,2.0"]))  # numpy strips these
@example(csv_text(1, ["1,0.1,ap,1.0\x0b,2.0\x85", "2,0.2 ,ap,1.0,2.0"]))  # splitlines
@example(csv_text(1, ["+5,\t.5 ,ap,-0, 1e400", "6,0.6,ap,5.,-0"], eol="\r\n"))  # both accept
@example(csv_text(1, ["+5, .5 ,ap,-0,\t1e-400", "6,0.6,ap,5.,-0"], eol="\r\n"))  # both accept
@example(csv_text(1, ["5.0,0.1,ap,1.0,2.0", "6,0.2,ap,1.0,2.0"]))  # a seq written as a float
@example(csv_text(1, [f"{2 ** 63},0.1,ap,1.0,2.0", "6,0.2,ap,1.0,2.0"]))  # beyond int64
@example(csv_text(1, [f"{-2 ** 63},0.1,ap,1.0,2.0", "6,0.2,ap,1.0,2.0"]))  # int64's floor
@example(csv_text(1, ["1,0.1,ap,1.0", "2,0.2,ap,1.0,2.0"]))  # a missing field
@example(csv_text(1, ["1,0.1,ap,1.0\r,2.0", "2,0.2,ap,1.0,2.0"]))  # a lone \r in a row
@example(csv_text(1, ["1,0.1,ap,1.0,2.0", "2,0.2,ap,1.0,2.0"], bom="\ufeff"))  # a BOM
@example(csv_text(1, ["", "1,0.1,ap,1.0,2.0", "", "2,0.2,ap,1.0,2.0", ""]))  # blank lines
@example(csv_text(1, ["1,0.1,ap,1.0,2.0", "2,0.2,sta,1.0,2.0"]))  # mixed device ids
@example(csv_text(1, ["1,0.1,a\rb,1.0,2.0", "2,0.2,a\rb,1.0,2.0"]))  # \r in the device id
@example(csv_text(1, ["3,0.1,ap,1.0,2.0", "3,0.2,ap,1.0,2.0", "1,0.3,ap,1.0,2.0",
                      "4,0.4,ap,1.0,2.0"]))  # a duplicate and an out-of-order row
# the last kept row's device differs from an earlier kept row's, and the rows after it
# (a duplicate, an out-of-order and a non-finite row) carry a third
@example(csv_text(1, ["1,0.1,ap,1.0,2.0", "2,0.2,sta,1.0,2.0", "2,0.3,x,1.0,2.0",
                      "1,0.4,x,1.0,2.0", "3,nan,x,1.0,2.0"]))
def test_columnar_pass_equals_row_loop(text):
    got, want, body, columns, rows = parse_both_ways(text)
    assert got == want
    if columns is not None:
        assert _columns_key(body, columns) == _columns_key(body, rows)


def test_device_read_from_last_kept_row_past_unread_rows():
    # the row loop's unread rows shift a kept row's index in the body
    text = csv_text(1, ["1,0.1,ap,1.0,2.0", "x,0.2,y,1.0,2.0", "", "2,0.3,sta,1.0,2.0",
                        "3,0.4,z,1.0", "2,0.5,w,1.0,2.0", "4,inf,v,1.0,2.0"])
    tr = parse_csi_csv(text, rate_hz=10.0)
    assert (tr.device_id, tr.seqs.tolist()) == ("sta", [1, 2])
    assert tr.parse_stats == {"bad_rows": [2, 4, 6], "duplicates": 1, "out_of_order": 0}


@pytest.fixture(scope="module")
def nlos_long_csvs():
    ap, sta, _ = gen_pair(preset("nlos-long", 300, seed=4))
    return [write_csi_csv(tr) for tr in (ap, sta)]


def test_clean_files_take_the_columnar_pass(nlos_long_csvs, monkeypatch):
    # a columnar pass that always declined would pass every other test
    want = [parse_csi_csv(text) for text in nlos_long_csvs]
    ap_lines, sta_lines = (text.split("\n") for text in nlos_long_csvs)
    nan_row = ap_lines[30].split(",")
    nan_row[5] = "nan"
    odd = {"one nan row": "\n".join([*ap_lines[:30], ",".join(nan_row), *ap_lines[31:]]),
           "two devices": "\n".join([*ap_lines[:1500], *sta_lines[1500:]])}
    with mock.patch.object(traces, "_parse_columns", lambda *args: None):
        odd_want = {name: parse_csi_csv(text) for name, text in odd.items()}
    assert odd_want["one nan row"].parse_stats["bad_rows"] == [30]
    assert odd_want["two devices"].device_id == "sta"

    def no_row_loop(*args):
        raise AssertionError("the row loop ran")

    monkeypatch.setattr(traces, "_parse_rows", no_row_loop)
    for name, text in odd.items():
        got, tr = parse_csi_csv(text), odd_want[name]
        assert got == tr and got.device_id == tr.device_id, name
        assert got.parse_stats == tr.parse_stats, name
    for text, tr in zip(nlos_long_csvs, want):
        lines = text.split("\n")
        shuffled = [*lines[:11], lines[10], *lines[11:21], lines[5], *lines[21:]]
        for variant, dup_ooo in ((text, 0), (text.replace("\n", "\r\n"), 0),
                                 ("\n".join(shuffled), 1)):
            got = parse_csi_csv(variant)
            assert got == tr and got.device_id == tr.device_id
            assert got.parse_stats == {"bad_rows": [], "duplicates": dup_ooo,
                                       "out_of_order": dup_ooo}


class TestMagnitude:
    def test_three_four_five(self):
        tr = make_trace([1], [0], subcarriers=2)
        tr = CsiTrace("ap", 2, 10.0, [1], [0.1], np.array([[3 + 4j, 0 + 0j]]))
        ms = magnitude_series(tr, 0)
        assert ms.values[0] == 5.0
        assert magnitude_series(tr, 1).values[0] == 0.0

    def test_elementwise_oracle(self):
        rng = np.random.default_rng(11)
        iqs = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
        tr = CsiTrace("ap", 4, 10.0, np.arange(100), np.arange(100) * 0.1, iqs)
        for sc in range(4):
            got = magnitude_series(tr, sc).values
            want = np.sqrt(iqs[:, sc].real ** 2 + iqs[:, sc].imag ** 2)
            np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_out_of_range(self):
        tr = make_trace([1, 2], [1, 2])
        with pytest.raises(SubcarrierOutOfRangeError):
            magnitude_series(tr, 1)

    def test_order_preserved(self):
        tr = make_trace([1, 5, 9], [3.0, 1.0, 2.0])
        np.testing.assert_array_equal(magnitude_series(tr, 0).values, [3.0, 1.0, 2.0])


def pair_by_grid_fill(ap, sta, subcarrier):
    """The grid fill interpolate_linear replaced: the equivalence reference.

    Both sides go onto one NaN grid over the overlap, interior NaN runs are
    filled linearly, and seqs still NaN on either side are trimmed.
    """
    m_ap, m_sta = magnitude_series(ap, subcarrier), magnitude_series(sta, subcarrier)
    lo = max(m_ap.seqs[0], m_sta.seqs[0])
    hi = min(m_ap.seqs[-1], m_sta.seqs[-1])
    if lo > hi:
        raise NoOverlapError(f"seq ranges do not overlap ({lo} > {hi})")
    grid = np.arange(lo, hi + 1)

    def filled(ms):
        v = np.full(len(grid), np.nan)
        sel = (ms.seqs >= lo) & (ms.seqs <= hi)
        v[ms.seqs[sel] - lo] = ms.values[sel]
        idx = np.flatnonzero(~np.isnan(v))
        if idx.size:
            interior = np.isnan(v)
            interior[: idx[0]] = False
            interior[idx[-1] + 1:] = False
            v[interior] = np.interp(np.flatnonzero(interior), idx, v[idx])
        return v

    a, b = filled(m_ap), filled(m_sta)
    keep = ~(np.isnan(a) | np.isnan(b))
    if not keep.any():
        raise NoOverlapError("no jointly present samples in the overlap")
    return grid[keep], a[keep], b[keep]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, -7, 2 ** 62 - 40, -(2 ** 62), 2 ** 63 - 130]),
       st.sets(st.integers(0, 80), min_size=1), st.sets(st.integers(0, 80), min_size=1),
       st.integers(0, 2 ** 32 - 1))
@example(2 ** 62, {0, 2, 4}, {0, 1, 2, 3, 4}, 0)  # np.interp on absolute seqs is inexact here
def test_interpolate_linear_equals_grid_fill(offset, s1, s2, seed):
    rng = np.random.default_rng(seed)
    seqs = [offset + np.array(sorted(s), dtype=np.int64) for s in (s1, s2)]
    ap = make_trace(seqs[0], rng.uniform(0, 5, len(s1)))
    sta = make_trace(seqs[1], rng.uniform(0, 5, len(s2)), device="sta")
    try:
        grid, want_a, want_b = pair_by_grid_fill(ap, sta, 0)
    except NoOverlapError:
        with pytest.raises(NoOverlapError):
            pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
        return
    rows = [np.count_nonzero((s >= grid[0]) & (s <= grid[-1])) for s in seqs]
    if len(grid) > 2 * min(rows):  # a run the bound rejects
        with pytest.raises(NoOverlapError, match="interpolation run"):
            pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
        return
    a, b = pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
    assert a.seqs.tobytes() == b.seqs.tobytes() == grid.tobytes()
    assert a.values.tobytes() == want_a.tobytes()
    assert b.values.tobytes() == want_b.tobytes()


class TestPair:
    def test_no_gaps(self):
        ap = make_trace([1, 2, 3], [1, 2, 3])
        sta = make_trace([1, 2, 3], [4, 5, 6], device="sta")
        a, b = pair_traces(ap, sta, 0)
        assert len(a) == len(b) == 3

    def test_drop_both_intersection(self):
        ap = make_trace([1, 2, 3, 4], [1, 2, 3, 4])
        sta = make_trace([1, 3, 4], [1, 3, 4], device="sta")
        a, b = pair_traces(ap, sta, 0, gap_policy="drop_both")
        assert list(a.seqs) == [1, 3, 4]
        np.testing.assert_array_equal(a.values, [1, 3, 4])
        np.testing.assert_array_equal(b.values, [1, 3, 4])

    def test_drop_both_work_bounded_by_rows_not_seq_span(self):
        # a grid over the seq span would need 10**12 cells
        ap = make_trace([0, 10 ** 12], [1, 2])
        sta = make_trace([0, 10 ** 12], [3, 4], device="sta")
        a, b = pair_traces(ap, sta, 0, gap_policy="drop_both")
        assert list(a.seqs) == list(b.seqs) == [0, 10 ** 12]
        np.testing.assert_array_equal(a.values, [1, 2])
        np.testing.assert_array_equal(b.values, [3, 4])

    def test_interpolate_midpoint(self):
        ap = make_trace([3, 4, 6, 7], [1.0, 2.0, 4.0, 5.0])  # gap at seq 5
        sta = make_trace([3, 4, 5, 6, 7], [1, 1, 1, 1, 1], device="sta")
        a, b = pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
        assert list(a.seqs) == [3, 4, 5, 6, 7]
        assert a.values[2] == pytest.approx(3.0)

    def test_interpolate_trims_edges(self):
        ap = make_trace([2, 3, 4], [1, 2, 3])
        sta = make_trace([1, 3, 4, 5], [9, 8, 7, 6], device="sta")
        a, b = pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
        # overlap [2,4]; sta missing seq 2 leading -> trimmed
        assert list(a.seqs) == [3, 4]

    def test_interpolate_work_bounded_by_rows_not_seq_span(self):
        # a grid over the run would need 10**12 cells; the bound rejects it first
        ap = make_trace([0, 10 ** 12], [1, 2])
        sta = make_trace([0, 10 ** 12], [3, 4], device="sta")
        with pytest.raises(NoOverlapError, match=r"run of 1000000000001 seqs.*2 AP and 2 STA"):
            pair_traces(ap, sta, 0, gap_policy="interpolate_linear")

    def test_interpolate_across_the_full_int64_range(self):
        # the AP's sample before the run lies 2**64 - 4 seqs back: past an int64 difference
        top = 2 ** 63 - 1
        ap = make_trace([-top, top - 1], [1.0, 3.0])
        sta = make_trace([-top - 1, top - 2, top - 1], [5.0, 6.0, 7.0], device="sta")
        a, b = pair_traces(ap, sta, 0, gap_policy="interpolate_linear")
        assert a.seqs.tolist() == [top - 2, top - 1]
        np.testing.assert_allclose(a.values, [3.0, 3.0], rtol=1e-15)
        assert b.values.tolist() == [6.0, 7.0]

    def test_no_overlap(self):
        ap = make_trace([1, 2], [1, 2])
        sta = make_trace([10, 11], [1, 2], device="sta")
        with pytest.raises(NoOverlapError):
            pair_traces(ap, sta, 0)

    def test_rate_mismatch_rejected(self):
        ap = make_trace([1, 2, 3], [1, 2, 3], rate=10.0)
        sta = make_trace([1, 2, 3], [1, 2, 3], device="sta", rate=2.0)
        with pytest.raises(RateMismatchError, match=r"10\.0 Hz.*2\.0 Hz"):
            pair_traces(ap, sta, 0)

    def test_rates_within_one_percent_pair(self):
        ap = make_trace([1, 2, 3], [1, 2, 3], rate=10.0)
        sta = make_trace([1, 2, 3], [1, 2, 3], device="sta", rate=10.09)
        a, _ = pair_traces(ap, sta, 0)
        assert a.rate_hz == 10.0

    def test_drop_both_length_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s1 = np.unique(rng.integers(0, 60, size=30))
            s2 = np.unique(rng.integers(0, 60, size=30))
            if s1.size == 0 or s2.size == 0:
                continue
            ap = make_trace(s1, rng.uniform(1, 2, len(s1)))
            sta = make_trace(s2, rng.uniform(1, 2, len(s2)), device="sta")
            try:
                a, b = pair_traces(ap, sta, 0)
            except NoOverlapError:
                continue
            assert len(a) == len(b) <= min(len(s1), len(s2))
