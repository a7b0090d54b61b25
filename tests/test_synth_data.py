"""Workload generators (paper Section 9.1 data sets; DESIGN.md
substitutions) and the selectivity knob of the Figure-9 experiment."""
import numpy as np
import pytest

from repro.synth_data import (
    activity_stream_pdf,
    selectivity_offset,
    stock_stream_pdf,
    transport_stream_pdf,
)


class TestActivityStream:
    def test_schema_and_determinism(self):
        a = activity_stream_pdf(n=500, seed=1)
        b = activity_stream_pdf(n=500, seed=1)
        assert list(a.columns) == ["time", "person", "activity", "rate", "etype"]
        assert a.equals(b)
        assert not a.equals(activity_stream_pdf(n=500, seed=2))

    def test_paper_parameters(self):
        a = activity_stream_pdf(n=2000)
        assert a.person.nunique() <= 14
        assert a.activity.max() < 18
        assert (a.etype == "M").all()

    def test_strictly_increasing_time(self):
        a = activity_stream_pdf(n=300)
        assert (np.diff(a.time.to_numpy()) > 0).all()

    def test_rate_bounded_and_varying(self):
        a = activity_stream_pdf(n=2000)
        assert a.rate.between(40, 200).all()
        per_person = a.groupby("person").rate.apply(lambda s: s.diff().dropna())
        assert (per_person > 0).any() and (per_person < 0).any()


class TestStockStream:
    def test_schema_and_groups(self):
        s = stock_stream_pdf(n=1000)
        assert list(s.columns) == ["time", "company", "sector", "price", "etype"]
        assert s.company.nunique() <= 19
        assert s.sector.nunique() <= 10
        assert (s.sector == s.company % 10).all()

    def test_types_and_prices(self):
        s = stock_stream_pdf(n=1000)
        assert set(s.etype) == {"D", "U"}
        assert s.price.between(0, 1).all()

    def test_down_share(self):
        s = stock_stream_pdf(n=5000, down_share=0.8)
        assert 0.75 < (s.etype == "D").mean() < 0.85

    def test_determinism(self):
        assert stock_stream_pdf(n=400, seed=3).equals(stock_stream_pdf(n=400, seed=3))


class TestTransportStream:
    def test_schema(self):
        t = transport_stream_pdf(n=1000)
        assert list(t.columns) == ["time", "passenger", "station", "wait", "etype"]
        assert set(t.etype) <= {
            "Accept", "Call", "Cancel", "Finish", "InTransit", "Dropoff"
        }

    def test_trip_structure_per_passenger(self):
        """Relevant events per passenger follow Accept,(Call,Cancel)+,Finish
        up to truncation at stream end."""
        t = transport_stream_pdf(n=3000, n_passengers=5, seed=4)
        order = {"Accept": 0, "Call": 1, "Cancel": 2, "Finish": 3}
        ok_next = {0: {1}, 1: {2}, 2: {1, 3}, 3: {0}}
        for _, g in t[t.etype.isin(order)].groupby("passenger"):
            codes = [order[e] for e in g.sort_values("time").etype]
            assert codes[0] == 0
            for a, b in zip(codes, codes[1:]):
                assert b in ok_next[a], (a, b)

    def test_group_count_parameter(self):
        t = transport_stream_pdf(n=2000, n_passengers=7)
        assert t.passenger.nunique() <= 7

    def test_noise_share(self):
        t = transport_stream_pdf(n=5000, noise_share=0.4, seed=5)
        assert 0.35 < t.etype.isin(["InTransit", "Dropoff"]).mean() < 0.45


class TestSelectivityOffset:
    @pytest.mark.parametrize("s", [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
    def test_empirical_selectivity(self, s):
        g = np.random.default_rng(0)
        p1, p2 = g.random(100_000), g.random(100_000)
        c = selectivity_offset(s)
        assert (p1 < p2 + c).mean() == pytest.approx(s, abs=0.01)

    def test_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                selectivity_offset(bad)

    def test_monotone(self):
        cs = [selectivity_offset(s) for s in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert cs == sorted(cs)
