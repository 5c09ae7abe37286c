"""The profile-based accelerator evaluation against the per-pair oracle.

``SushiAccelModel.subnet_breakdown`` computes each SubNet's cache-independent
layer terms once (memoized per model) and only the cached-bytes terms per
call.  ``tests/accel_oracle.reference_breakdown`` recomputes every term on
every call.  Every field of the two breakdowns, ``per_layer`` included, must
be bit-identical — compared by ``repr``, so ``-0.0``/``0.0`` or a last-digit
difference fails — on both families, random PB sizes and overlap fractions,
fitted random candidates, ``cached=None`` and one-layer filters, and on memo
hits as well as on first evaluations.
"""

from hypothesis import given, settings, strategies as st

from accel_oracle import reference_breakdown, reference_layer_latency
from repro.accelerator.analytic_model import SushiAccelModel
from repro.accelerator.dataflow import layer_latency
from repro.accelerator.persistent_buffer import CachedSubGraph, PersistentBuffer
from repro.accelerator.platforms import ANALYTIC_DEFAULT, ZCU104
from repro.supernet.subnet import SubNet, SubNetConfig
from repro.supernet.zoo import load_supernet

_SUPERNETS = {name: load_supernet(name) for name in ("ofa_resnet50", "ofa_mobilenetv3")}


@st.composite
def subnets(draw, supernet):
    elastic = supernet.elastic
    config = SubNetConfig(
        depths=tuple(draw(st.sampled_from(stage.depth_choices)) for stage in supernet.stages),
        expand_ratio=draw(st.sampled_from(elastic.expand_choices)),
        width_mult=draw(st.sampled_from(elastic.width_choices)),
    )
    return SubNet(supernet, config)


@st.composite
def cases(draw):
    supernet = _SUPERNETS[draw(st.sampled_from(sorted(_SUPERNETS)))]
    platform = draw(st.sampled_from((ANALYTIC_DEFAULT, ZCU104)))
    pb_kb = draw(st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=2048.0))
    model = SushiAccelModel(
        platform.with_pb(pb_kb),
        weight_overlap_fraction=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    subnet = draw(subnets(supernet))
    # Candidates as the PB holds them: a random SubNet, or the intersection
    # of two, fitted to this model's PB capacity.
    pb = PersistentBuffer(model.pb_capacity_bytes)
    candidates = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        sg = CachedSubGraph.from_subnet(draw(subnets(supernet)))
        if draw(st.booleans()):
            other = draw(subnets(supernet)).layer_slices
            sg = CachedSubGraph(
                name="meet",
                slices={n: sl.intersect(other[n]) for n, sl in sg.slices.items() if n in other},
            )
        candidates.append(pb.fit_subgraph(sg))
    return model, subnet, candidates


def _same(got, expected):
    assert repr(got) == repr(expected)


class TestProfileMatchesOracle:
    @given(cases())
    @settings(max_examples=60, deadline=None)
    def test_breakdown_bit_identical(self, case):
        model, subnet, candidates = case
        # None first (profiles built), then every candidate twice (memo hits).
        for cached in [None, *candidates, *candidates, None]:
            _same(model.subnet_breakdown(subnet, cached), reference_breakdown(model, subnet, cached))

    @given(cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_one_layer_filter_is_first_and_last(self, case, data):
        model, subnet, candidates = case
        names = subnet.layer_names
        keep = names[data.draw(st.integers(min_value=0, max_value=len(names) - 1))]

        def only(layer):
            return layer.name == keep

        # Warm the memo first: a filtered call must not read it.
        model.subnet_breakdown(subnet, candidates[0])
        for cached in [None, *candidates]:
            got = model.subnet_breakdown(subnet, cached, layer_filter=only)
            assert len(got.per_layer) == 1
            _same(got, reference_breakdown(model, subnet, cached, layer_filter=only))

    @given(cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_layer_latency_wrapper(self, case, data):
        model, subnet, _ = case
        layer = data.draw(st.sampled_from(subnet.active_layers()))
        kwargs = dict(
            cached_weight_bytes=data.draw(
                st.floats(min_value=-1.0, max_value=2.0 * layer.weight_bytes)
                | st.integers(min_value=0, max_value=layer.weight_bytes)
            ),
            onchip_bandwidth_bytes_per_cycle=data.draw(st.sampled_from((0.0, 64.0, 512.0))),
            sb_capacity_bytes=data.draw(st.none() | st.integers(min_value=0, max_value=2**20)),
            ob_capacity_bytes=data.draw(st.none() | st.integers(min_value=0, max_value=2**20)),
            is_first_layer=data.draw(st.booleans()),
            is_last_layer=data.draw(st.booleans()),
            weight_overlap_fraction=model.weight_overlap_fraction,
        )
        _same(
            layer_latency(layer, model.dpe, model.dram, **kwargs),
            reference_layer_latency(layer, model.dpe, model.dram, **kwargs),
        )
