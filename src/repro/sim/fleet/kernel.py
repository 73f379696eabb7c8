"""Structure-of-arrays batch kernel for fleets of in-situ sites.

One :class:`_FleetBatch` holds the full plant state of N sites as numpy
arrays — battery wells ``(N, B)``, server states ``(N, S)``, controller
scalars ``(N,)`` — and replays the scalar engine's per-tick component
order (source → controller → rack → plant → metrics) with one vectorized
op per physical expression.

Numerical contract: every arithmetic expression mirrors the scalar
implementation operation-for-operation (same association order, same
clamps, same ADC rounding), and per-site sensor noise comes from the same
sha256-derived ``RandomStreams`` generators consumed in the same block
pattern.  Elementwise IEEE ops are deterministic, so per-site trajectories
track the scalar kernel to the last ulp except where libm transcendentals
differ; the :class:`~repro.sim.fleet.validator.FleetValidator` gates the
result against scalar golden summaries within the invariant tolerance.

Divergent control flow (mode changes, VM reconciliation, charger
water-filling) is handled with boolean masks; loops run over the *small*
axes (B batteries, S servers, 4 water-filling rounds) so the per-site
axis N always stays vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.sim.rng import RandomStreams

__all__ = ["FleetUnsupported", "SiteSpec", "simulate_fleet"]


class FleetUnsupported(RuntimeError):
    """A cell uses features the vectorized kernel cannot batch.

    Callers (the ``fleet`` runner backend, the CLI) treat this as a
    routing signal: fall back to the scalar pool/serial paths.
    """


# Battery operating modes (matching repro.battery.unit.BatteryMode order).
_OFFLINE, _CHARGING, _STANDBY, _DISCHARGING = 0, 1, 2, 3
# Relay bus attachment (both relays open / charge closed / discharge closed).
_BUS_OFFLINE, _BUS_CHARGE, _BUS_LOAD = 0, 1, 2
#: Bus a mode maps to (repro.power.modes.bus_for_mode).
_BUS_FOR_MODE = (_BUS_OFFLINE, _BUS_CHARGE, _BUS_LOAD, _BUS_LOAD)
# Server lifecycle (matching repro.cluster.server.ServerState).
_OFF, _BOOTING, _ON, _SAVING = 0, 1, 2, 3

#: Transducer noise block length (repro.power.sensors.Transducer).
_NOISE_BLOCK = 256

_SUPPORTED_CONTROLLERS = ("insure", "baseline")
_SUPPORTED_WORKLOADS = ("video", "seismic")


@dataclass(frozen=True)
class SiteSpec:
    """One site of a fleet batch.

    ``trace_power_w`` / ``trace_dt_s`` are the solar day trace exactly as
    the scalar :class:`~repro.solar.field.TracePlayer` would replay it.
    Sites sharing (controller, workload, battery_count, server_count,
    dt_s, steps) are stepped in lockstep; anything else raises
    :class:`FleetUnsupported`.
    """

    controller: str
    workload: str
    seed: int
    initial_soc: float
    trace_power_w: tuple
    trace_dt_s: float
    battery_count: int = 3
    server_count: int = 4
    dt_s: float = 5.0
    duration_s: float | None = None
    #: Policy scenario overlay (a name from
    #: :mod:`repro.experiments.scenarios`); None runs the bare controller.
    scenario: str | None = None

    def resolved_duration_s(self) -> float:
        if self.duration_s is not None:
            return self.duration_s
        return len(self.trace_power_w) * self.trace_dt_s

    def steps(self) -> int:
        # Engine.run: steps = max(1, round(duration / dt))
        return max(1, round(self.resolved_duration_s() / self.dt_s))


def _check_supported(spec: SiteSpec) -> None:
    if spec.controller not in _SUPPORTED_CONTROLLERS:
        raise FleetUnsupported(f"controller {spec.controller!r} not batchable")
    if spec.workload not in _SUPPORTED_WORKLOADS:
        raise FleetUnsupported(f"workload {spec.workload!r} not batchable")
    if spec.trace_dt_s != spec.dt_s:
        raise FleetUnsupported("trace_dt_s must equal dt_s for the fleet kernel")
    if spec.dt_s < 0.5:
        raise FleetUnsupported("dt below the PLC scan period is not batchable")
    if spec.battery_count < 1 or spec.server_count < 1:
        raise FleetUnsupported("degenerate bank or rack")
    if spec.scenario is not None:
        _check_scenario_supported(spec.scenario)


#: Control methods the batch kernel can apply as masked array ops.
_FLEET_CONTROLS = frozenset({"duty_cap", "vm_retarget", "charge_current_cap"})


def _check_scenario_supported(scenario: str) -> None:
    """A scenario batches iff its signals are pure functions of time and
    its controls have an array port; anything else (plant-coupled signals
    like SoC/solar-forecast, checkpoint shedding) falls back to scalar."""
    from repro.experiments.scenarios import get_scenario
    from repro.policy.registry import make_signal
    from repro.policy.signals import DiurnalSignal

    try:
        spec = get_scenario(scenario)
    except ValueError as exc:
        raise FleetUnsupported(str(exc)) from None
    for pdef in spec.policies:
        if pdef.control not in _FLEET_CONTROLS:
            raise FleetUnsupported(
                f"policy control {pdef.control!r} not batchable"
            )
        if not isinstance(make_signal(pdef.signal), DiurnalSignal):
            raise FleetUnsupported(
                f"policy signal {pdef.signal!r} reads plant state; "
                "not batchable"
            )


def simulate_fleet(specs: Sequence[SiteSpec]) -> list[dict]:
    """Run every site and return per-site run summaries (dicts).

    Sites are grouped into homogeneous lockstep batches; results come back
    in input order.  Raises :class:`FleetUnsupported` if any site cannot
    be batched.
    """
    for spec in specs:
        _check_supported(spec)
    groups: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        key = (
            spec.controller,
            spec.workload,
            spec.battery_count,
            spec.server_count,
            spec.dt_s,
            spec.steps(),
            spec.scenario,
        )
        groups.setdefault(key, []).append(index)
    out: list[dict | None] = [None] * len(specs)
    for indices in groups.values():
        batch = _FleetBatch([specs[i] for i in indices])
        for where, summary in zip(indices, batch.run(), strict=True):
            out[where] = summary
    return out  # type: ignore[return-value]


class _FleetBatch:
    """Lockstep SoA simulation of homogeneous sites.

    All mutable state lives in numpy arrays keyed on the site axis; the
    methods below are one-to-one ports of the scalar components they name
    in their docstrings.
    """

    def __init__(self, specs: Sequence[SiteSpec]) -> None:
        first = specs[0]
        self.specs = list(specs)
        self.controller = first.controller
        self.workload_kind = first.workload
        self.n = len(specs)
        self.b = first.battery_count
        self.s = first.server_count
        self.dt = first.dt_s
        self.steps = first.steps()
        self._init_constants()
        self._init_trace()
        self._init_battery()
        self._init_noise()
        self._init_servers()
        self._init_controller()
        self._init_workload()
        self._init_metrics()
        self._init_policies()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _init_constants(self) -> None:
        # Derived constants computed with the scalar code's expressions so
        # batched arithmetic starts from bit-identical values.
        dt = self.dt
        self.dt_h = dt / 3600.0
        # KiBaM (repro.battery.kibam, defaults c=0.62, k=4/h, 35 Ah)
        self.kib_c = 0.62
        self.kib_cap = 35.0
        self.kib_k = 4.0
        self.k_eff = self.kib_k * self.kib_c * (1.0 - self.kib_c) * self.kib_cap
        self.y1_cap = self.kib_c * self.kib_cap
        self.y2_cap = (1.0 - self.kib_c) * self.kib_cap
        # Voltage model (repro.battery.voltage)
        self.emf_empty = 23.0
        self.emf_full = 25.6
        self.r_internal = 0.03
        self.v_charge_max = 28.8
        self.v_cutoff = 23.3
        # Acceptance (repro.battery.acceptance)
        self.acc_bulk = 0.25 * self.kib_cap
        self.acc_floor = 0.01 * self.kib_cap
        self.acc_taper_start = 0.85
        self.acc_taper_exp = 4.0
        self.acc_gassing_soc = 0.88
        self.acc_gassing_frac = 0.3
        self.acc_parasitic = 0.6
        # Wear (repro.battery.wear)
        self.wear_lifetime = 17500.0
        self.wear_design_days = 1460.0
        self.wear_stress_rate = 0.3
        self.wear_rate_slope = 2.0
        self.wear_deep = 0.45
        self.wear_deep_slope = 1.5
        # Self discharge leak (repro.battery.unit.idle)
        self.leak_ah = 0.001 * self.kib_cap * dt / 86400.0
        self.leak_amps = self.leak_ah * 3600.0 / dt
        # Charger (repro.battery.charger)
        self.chg_eff = 0.94
        self.chg_overhead = 15.0
        self.float_amps = 0.01 * self.kib_cap
        # DC/DC converter (repro.power.converters.DCDCConverter)
        self.conv_rated = 2000.0
        self.conv_peak_eff = 0.955
        self.conv_fixed_loss = 12.0
        # PDU
        self.pdu_overhead = 2.0
        # Server profile (xeon-dl380)
        self.srv_idle = 280.0
        self.srv_peak = 450.0
        self.srv_boot_s = 660.0
        self.srv_save_s = 240.0
        self.srv_slots = 2
        self.cpu_share = 0.2
        # per_vm_w (repro.core.controller_base.Controller.__init__)
        u = self.cpu_share * self.srv_slots
        if u > 1.0:
            u = 1.0
        self.per_vm_w = (
            self.srv_idle + (self.srv_peak - self.srv_idle) * u
        ) / self.srv_slots
        # Shedding (repro.core.system.PlantCoupler)
        self.shed_tol_w = 30.0
        self.shed_tol_frac = 0.03
        self.nominal_v = 24.0

    def _init_trace(self) -> None:
        trace = np.zeros((self.n, self.steps), dtype=np.float64)
        for i, spec in enumerate(self.specs):
            power = np.asarray(spec.trace_power_w, dtype=np.float64)
            count = min(power.shape[0], self.steps)
            trace[i, :count] = power[:count]
        self.trace = trace

    def _init_battery(self) -> None:
        n, b = self.n, self.b
        soc0 = np.array([s.initial_soc for s in self.specs], dtype=np.float64)
        # BatteryUnit.__init__: y1 = soc*c*cap, y2 = soc*(1-c)*cap
        self.y1 = np.repeat((soc0 * self.kib_c * self.kib_cap)[:, None], b, axis=1)
        self.y2 = np.repeat(
            (soc0 * (1.0 - self.kib_c) * self.kib_cap)[:, None], b, axis=1
        )
        self.last_i = np.zeros((n, b), dtype=np.float64)
        self.mode = np.full((n, b), _STANDBY, dtype=np.int8)
        self.bus = np.full((n, b), _BUS_OFFLINE, dtype=np.int8)
        self.wear_dis = np.zeros((n, b), dtype=np.float64)
        self.wear_wt = np.zeros((n, b), dtype=np.float64)
        # Sensed state (repro.core.sensing.BatterySense)
        self.sense_v = np.zeros((n, b), dtype=np.float64)
        self.sense_i = np.zeros((n, b), dtype=np.float64)
        self.est = np.repeat(soc0[:, None], b, axis=1)
        self.sense_dis = np.zeros((n, b), dtype=np.float64)
        self.rest_s = np.zeros((n, b), dtype=np.float64)

    def _init_noise(self) -> None:
        # One generator per (site, battery, channel), seeded exactly like
        # the scalar sensing chain: RandomStreams(seed).stream(name).
        self._gen_v = []
        self._gen_i = []
        for spec in self.specs:
            streams = RandomStreams(spec.seed)
            row_v, row_i = [], []
            for unit in range(self.b):
                row_v.append(streams.stream(f"sense.battery-{unit + 1}.v"))
                row_i.append(streams.stream(f"sense.battery-{unit + 1}.i"))
            self._gen_v.append(row_v)
            self._gen_i.append(row_i)
        # Refill amortization: small batches take several 256-sample blocks
        # per refill (PCG64 draws are stream-sequential, so one call for
        # k*256 samples yields the same bits as k consecutive 256-sample
        # calls).  Bounded so large batches keep the buffer cache-sized.
        mult = max(1, min(8, (1 << 20) // (_NOISE_BLOCK * max(1, self.n))))
        self.noise_block = _NOISE_BLOCK * mult
        self._blk_v = np.empty(
            (self.noise_block, self.n, self.b), dtype=np.float64
        )
        self._blk_i = np.empty(
            (self.noise_block, self.n, self.b), dtype=np.float64
        )

    def _refill_noise(self) -> None:
        # The scalar transducer refills a 256-sample block when exhausted;
        # one read per tick keeps blocks aligned to tick 0, 256, 512, ...
        block = self.noise_block
        for i in range(self.n):
            for unit in range(self.b):
                self._blk_v[:, i, unit] = self._gen_v[i][unit].standard_normal(
                    block
                )
                self._blk_i[:, i, unit] = self._gen_i[i][unit].standard_normal(
                    block
                )

    def _init_servers(self) -> None:
        n, s = self.n, self.s
        self.sstate = np.full((n, s), _OFF, dtype=np.int8)
        self.stimer = np.zeros((n, s), dtype=np.float64)
        self.placed = np.zeros((n, s), dtype=np.int64)
        self.crashes = np.zeros(n, dtype=np.int64)
        self.on_off = np.zeros(n, dtype=np.int64)
        self.duty_deci = np.full(n, 10, dtype=np.int64)  # duty = deci / 10
        self.vm_target = np.zeros(n, dtype=np.int64)   # controller's view
        self.alloc_target = np.zeros(n, dtype=np.int64)  # allocator's view
        self.vm_ops = np.zeros(n, dtype=np.int64)
        self.switch_ops = np.zeros(n, dtype=np.int64)
        self.last_compute = np.zeros(n, dtype=np.float64)

    def _init_controller(self) -> None:
        n = self.n
        self.ema = np.zeros(n, dtype=np.float64)
        self.ema_slow = np.zeros(n, dtype=np.float64)
        inf = np.full(n, np.inf, dtype=np.float64)
        if self.controller == "insure":
            self.since_up = inf.copy()
            self.since_down = inf.copy()
            self.since_batch = inf.copy()
            self.since_crash = inf.copy()
            self.seen_crashes = np.zeros(n, dtype=np.int64)
            self.protect = np.zeros((n, self.b), dtype=bool)
            self.elastic_bonus = np.zeros(n, dtype=np.float64)
            self._tpm_elapsed = float("inf")
            self._spm_elapsed = float("inf")
        else:
            self.since_up = inf.copy()
            self.buffer_online = np.zeros(n, dtype=bool)
            self.trip_pending = np.zeros(n, dtype=bool)
            self._ctl_elapsed = float("inf")

    def _init_workload(self) -> None:
        # Arrivals are site-independent: drive the real scalar workload's
        # _generate over the whole horizon once and record the schedule.
        from repro.workloads.seismic import SeismicAnalysis
        from repro.workloads.video import VideoSurveillance

        if self.workload_kind == "video":
            wl = VideoSurveillance()
            self.ckpt_interval = wl.checkpoint_interval_s
            self.gb_rate = wl.gb_per_compute_second
            self.preferred_vms = wl.preferred_vms
            self.actuation = wl.actuation
            self.job_size = wl.chunk_gb
            # VideoSurveillance._job_delay: lag beyond the chunk duration
            self.delay_offset = wl.chunk_seconds
        else:
            wl = SeismicAnalysis()
            self.ckpt_interval = wl.checkpoint_interval_s
            self.gb_rate = wl.gb_per_compute_second
            self.preferred_vms = wl.preferred_vms
            self.actuation = wl.actuation
            self.job_size = wl.job_size_gb
            # Workload._job_delay: lag beyond ideal service time
            self.delay_offset = wl.job_size_gb / (
                wl.gb_per_compute_second * max(wl.preferred_vms, 1)
            )
        # Censored delay (Workload.mean_delay_minutes) always uses the
        # base ideal-service offset, for video too.
        self.censor_offset = self.job_size / (
            self.gb_rate * max(self.preferred_vms, 1)
        )
        arr_t: list[float] = [job.arrival_t for job in wl.queue.pending]
        arr_dl: list[float] = [
            (job.deadline_t if job.deadline_t is not None else np.nan)
            for job in wl.queue.pending
        ]
        self.n_initial = len(arr_t)
        n_by_tick = np.zeros(self.steps, dtype=np.int64)
        seen = len(arr_t)
        for k in range(self.steps):
            wl._generate(k * self.dt, self.dt)
            while seen < len(wl.queue.pending):
                job = wl.queue.pending[seen]
                arr_t.append(job.arrival_t)
                arr_dl.append(
                    job.deadline_t if job.deadline_t is not None else np.nan
                )
                seen += 1
            n_by_tick[k] = seen
        self.arr_t = np.asarray(arr_t, dtype=np.float64)
        self.arr_dl = np.asarray(arr_dl, dtype=np.float64)
        self.n_by_tick = n_by_tick
        self.has_deadlines = bool(len(arr_dl)) and not np.isnan(self.arr_dl).all()

        n = self.n
        self.head_idx = np.zeros(n, dtype=np.int64)
        self.head_done = np.zeros(n, dtype=np.float64)
        self.head_ckpt = np.zeros(n, dtype=np.float64)
        self.processed = np.zeros(n, dtype=np.float64)
        self.delay_sum = np.zeros(n, dtype=np.float64)
        self.delay_count = np.zeros(n, dtype=np.int64)
        self.dl_total = np.zeros(n, dtype=np.int64)
        self.dl_miss = np.zeros(n, dtype=np.int64)
        self.crash_count = np.zeros(n, dtype=np.int64)
        self._since_ckpt = 0.0

    def _init_policies(self) -> None:
        """Policy scenario overlay (port of repro.policy.policy.Policy).

        ``charge_cap`` always exists and defaults to 1.0 — the charger
        multiplies the surplus by it, an IEEE identity, so scenario-free
        batches stay bit-identical to the pre-policy kernel.  Each policy
        column holds the *scalar* per-site signal and governor objects and
        evaluates them at firing ticks: the limits carry the same libm
        bits as the scalar path, so discrete decisions (zone edges, step
        thresholds, duty quantisation) can never diverge between kernels.
        """
        self.charge_cap = np.ones(self.n, dtype=np.float64)
        self.policy_columns: list[dict] = []
        scenario = self.specs[0].scenario
        if scenario is None:
            return
        from repro.experiments.scenarios import build_policies, get_scenario

        sspec = get_scenario(scenario)
        per_site = [build_policies(scenario, spec.seed) for spec in self.specs]
        for j, pdef in enumerate(sspec.policies):
            self.policy_columns.append({
                "control": pdef.control,
                "interval_s": pdef.interval_s,
                # Same first-tick firing as Policy._elapsed = inf.
                "elapsed": float("inf"),
                "policies": [site[j] for site in per_site],
            })

    def _policy_step(self, k: int) -> None:
        """Step each policy column on its own evaluation cadence.

        Runs where the scalar managers step their overlays: after the
        InSURE TPM/SPM pass, before the baseline's decide gate.  The
        per-site evaluation loop only runs at firing ticks (hundreds of
        seconds apart), so the batch stays vectorized where it matters.
        """
        for column in self.policy_columns:
            column["elapsed"] += self.dt
            if column["elapsed"] < column["interval_s"]:
                continue
            column["elapsed"] = 0.0
            t = k * self.dt
            limits = np.array(
                [pol.governor.limit(pol.reading(t))
                 for pol in column["policies"]],
                dtype=np.float64,
            )
            clamped = np.minimum(np.maximum(limits, 0.0), 1.0)
            control = column["control"]
            if control == "duty_cap":
                # quantize_duty + "only ever lowers" (DutyCapControl),
                # floored at the one-quantum hardware minimum.
                caps = np.maximum(
                    np.floor(clamped * 10.0 + 1e-9).astype(np.int64), 1
                )
                self.duty_deci = np.minimum(self.duty_deci, caps)
            elif control == "vm_retarget":
                # VmRetargetControl: cap the preferred-VM fraction.
                caps = np.minimum(
                    self.preferred_vms,
                    np.floor(
                        clamped * self.preferred_vms + 1e-9
                    ).astype(np.int64),
                )
                mask = self.vm_target > caps
                self.vm_target = np.where(mask, caps, self.vm_target)
                self._set_target(mask, caps)
            else:  # charge_current_cap
                # ChargeCurrentCapControl: same end state as set-if-changed.
                self.charge_cap = clamped

    def _init_metrics(self) -> None:
        n = self.n
        self.uptime_s = np.zeros(n, dtype=np.float64)
        self.stored_int = np.zeros(n, dtype=np.float64)
        self.load_wh = np.zeros(n, dtype=np.float64)
        self.eff_wh = np.zeros(n, dtype=np.float64)
        self.solar_wh = np.zeros(n, dtype=np.float64)
        self.used_wh = np.zeros(n, dtype=np.float64)
        self.curt_wh = np.zeros(n, dtype=np.float64)
        self.min_v = np.full(n, np.inf, dtype=np.float64)
        self.vsamples: list[np.ndarray] = []
        self._since_vsample = float("inf")
        self._elapsed = 0.0
        # Per-tick scratch written by the plant step for the metrics step.
        self._metrics_demand = np.zeros(n, dtype=np.float64)
        self._rep_solar_to_load = np.zeros(n, dtype=np.float64)
        self._rep_charge_power = np.zeros(n, dtype=np.float64)
        self._rep_curtailed = np.zeros(n, dtype=np.float64)

    # ------------------------------------------------------------------
    # Battery physics (ports of repro.battery.*)
    # ------------------------------------------------------------------
    def _emf(self, y1: np.ndarray) -> np.ndarray:
        head = y1 / (self.kib_c * self.kib_cap)
        head = np.where(head < 0.0, 0.0, head)
        head = np.where(head > 1.0, 1.0, head)
        shaped = head**0.75
        return self.emf_empty + (self.emf_full - self.emf_empty) * shaped

    def _terminal_voltage(self, y1: np.ndarray, amps: np.ndarray) -> np.ndarray:
        v = self._emf(y1) - amps * self.r_internal
        return np.where(amps < 0.0, np.minimum(v, self.v_charge_max), v)

    def _kibam_apply(self, mask: np.ndarray, amps) -> np.ndarray:
        """KiBaM Euler step on masked cells; returns Ah moved (signed).

        ``amps`` may be an (n, b) array or a python float (broadcast);
        either way each cell sees the exact scalar expression tree.
        """
        y1 = self.y1
        y2 = self.y2
        diffusion = (
            self.k_eff
            * (
                y2 / ((1.0 - self.kib_c) * self.kib_cap)
                - y1 / (self.kib_c * self.kib_cap)
            )
            * self.dt_h
        )
        requested = amps * self.dt_h
        y1n = y1 - requested + diffusion
        y2n = y2 - diffusion
        under = y1n < 0.0
        over = ~under & (y1n > self.y1_cap)
        moved = np.where(under, requested + y1n, requested)
        moved = np.where(over, requested + (y1n - self.y1_cap), moved)
        y1n = np.where(under, 0.0, y1n)
        y1n = np.where(over, self.y1_cap, y1n)
        y2n = np.minimum(np.maximum(y2n, 0.0), self.y2_cap)
        self.y1 = np.where(mask, y1n, y1)
        self.y2 = np.where(mask, y2n, y2)
        return moved

    def _kibam_apply_col(self, col: int, mask: np.ndarray, amps) -> np.ndarray:
        """KiBaM Euler step on one bank column ((n,) ops, in-place write)."""
        y1 = self.y1[:, col]
        y2 = self.y2[:, col]
        diffusion = (
            self.k_eff
            * (
                y2 / ((1.0 - self.kib_c) * self.kib_cap)
                - y1 / (self.kib_c * self.kib_cap)
            )
            * self.dt_h
        )
        requested = amps * self.dt_h
        y1n = y1 - requested + diffusion
        y2n = y2 - diffusion
        under = y1n < 0.0
        over = ~under & (y1n > self.y1_cap)
        moved = np.where(under, requested + y1n, requested)
        moved = np.where(over, requested + (y1n - self.y1_cap), moved)
        y1n = np.where(under, 0.0, y1n)
        y1n = np.where(over, self.y1_cap, y1n)
        y2n = np.minimum(np.maximum(y2n, 0.0), self.y2_cap)
        self.y1[:, col] = np.where(mask, y1n, y1)
        self.y2[:, col] = np.where(mask, y2n, y2)
        return moved

    def _idle(self, mask: np.ndarray) -> None:
        """BatteryUnit.idle: recovery diffusion plus self-discharge leak."""
        if not mask.any():
            return
        self._kibam_apply(mask, self.leak_amps)
        self.last_i = np.where(mask, 0.0, self.last_i)

    def _idle_col(self, col: int, mask: np.ndarray) -> None:
        """BatteryUnit.idle on one bank column (masked sites)."""
        if not mask.any():
            return
        self._kibam_apply_col(col, mask, self.leak_amps)
        self.last_i[:, col] = np.where(mask, 0.0, self.last_i[:, col])

    def _max_discharge_current(self) -> np.ndarray:
        """BatteryUnit.max_discharge_current for every cell."""
        y1, y2 = self.y1, self.y2
        available_head = y1 / (self.kib_c * self.kib_cap)
        bound_head = y2 / ((1.0 - self.kib_c) * self.kib_cap)
        kinetic = np.maximum(
            0.0,
            (y1 + self.k_eff * (bound_head - available_head) * self.dt_h)
            / self.dt_h,
        )
        headroom = self._emf(y1) - self.v_cutoff
        cutoff = np.maximum(0.0, headroom / self.r_internal)
        return np.maximum(0.0, np.minimum(kinetic, cutoff))

    def _acceptance_max_current(self, soc: np.ndarray) -> np.ndarray:
        soc_c = np.minimum(np.maximum(soc, 0.0), 1.0)
        frac = (soc_c - self.acc_taper_start) / (1.0 - self.acc_taper_start)
        tapered = np.maximum(
            self.acc_bulk * np.exp(-self.acc_taper_exp * frac), self.acc_floor
        )
        return np.where(soc_c <= self.acc_taper_start, self.acc_bulk, tapered)

    def _acceptance_effective(
        self, applied: np.ndarray, soc: np.ndarray
    ) -> np.ndarray:
        accepted = np.minimum(applied, self._acceptance_max_current(soc))
        accepted = np.maximum(0.0, accepted - self.acc_parasitic)
        gass = soc > self.acc_gassing_soc
        frac = np.minimum(
            (soc - self.acc_gassing_soc) / (1.0 - self.acc_gassing_soc), 1.0
        )
        derated = accepted * (1.0 - self.acc_gassing_frac * frac)
        accepted = np.where(gass, derated, accepted)
        return np.where(applied <= 0.0, 0.0, accepted)

    def _apply_discharge(
        self, mask: np.ndarray, amps: np.ndarray, mdc: np.ndarray
    ) -> np.ndarray:
        """BatteryUnit.apply_discharge over the whole bank; returns amps.

        Each cell is elementwise-independent in the scalar loop, so one
        bankwide KiBaM/wear pass reproduces the per-unit iteration.
        """
        allowed = np.minimum(amps, mdc)
        active = mask & (allowed > 0.0)
        idle = mask & ~active
        delivered = np.zeros((self.n, self.b), dtype=np.float64)
        if active.any():
            soc_before = (self.y1 + self.y2) / self.kib_cap
            moved = self._kibam_apply(active, allowed)
            got = moved * 3600.0 / self.dt
            # WearModel.record(amps > 0)
            ah = np.abs(got) * self.dt / 3600.0
            c_rate = got / self.kib_cap
            stress = np.ones((self.n, self.b), dtype=np.float64)
            stress = np.where(
                c_rate > self.wear_stress_rate,
                stress + self.wear_rate_slope * (c_rate - self.wear_stress_rate),
                stress,
            )
            stress = np.where(
                soc_before < self.wear_deep,
                stress + self.wear_deep_slope * (self.wear_deep - soc_before),
                stress,
            )
            self.wear_dis = np.where(active, self.wear_dis + ah, self.wear_dis)
            self.wear_wt = np.where(
                active, self.wear_wt + ah * stress, self.wear_wt
            )
            self.last_i = np.where(active, got, self.last_i)
            delivered = np.where(active, got, delivered)
        if idle.any():
            self._idle(idle)
        return delivered

    def _apply_charge_col(
        self, mask: np.ndarray, col: int, applied: np.ndarray
    ) -> None:
        """BatteryUnit.apply_charge for one bank column (masked sites)."""
        soc = (self.y1[:, col] + self.y2[:, col]) / self.kib_cap
        effective = self._acceptance_effective(applied, soc)
        landing = mask & (effective > 0.0)
        refused = mask & ~landing
        if landing.any():
            moved = self._kibam_apply_col(col, landing, -effective)
            stored = -moved * 3600.0 / self.dt
            # Wear records only charge_ah here, which the summary ignores.
            self.last_i[:, col] = np.where(
                landing, -stored, self.last_i[:, col]
            )
        if refused.any():
            self._idle_col(col, refused)
            self.last_i[:, col] = np.where(
                refused,
                -np.minimum(applied, self.acc_parasitic),
                self.last_i[:, col],
            )

    # ------------------------------------------------------------------
    # Rack / servers (ports of repro.cluster.*)
    # ------------------------------------------------------------------
    def _server_power(self) -> np.ndarray:
        """Server.power_w for every (site, server)."""
        duty = (self.duty_deci / 10.0)[:, None]
        share = self.cpu_share * self.placed
        util = np.minimum(1.0, share * duty)
        p_on = self.srv_idle + (self.srv_peak - self.srv_idle) * util
        power = np.zeros((self.n, self.s), dtype=np.float64)
        power = np.where(self.sstate == _ON, p_on, power)
        power = np.where(self.sstate == _BOOTING, self.srv_idle, power)
        p_saving = self.srv_idle + (self.srv_peak - self.srv_idle) * 0.15
        power = np.where(self.sstate == _SAVING, p_saving, power)
        return power

    def _demand_w(self) -> np.ndarray:
        """ServerRack.demand_w: per-server power plus PDU port overhead."""
        power = self._server_power()
        self._last_power = power
        active = (power > 0.0).sum(axis=1)
        return power.sum(axis=1) + self.pdu_overhead * active

    def _running_count(self) -> np.ndarray:
        return (self.placed * (self.sstate == _ON)).sum(axis=1)

    def _active_servers(self) -> np.ndarray:
        return (self.sstate != _OFF).any(axis=1)

    def _rack_step(self) -> None:
        """ServerRack.step: advance lifecycle timers, accumulate compute."""
        booting = self.sstate == _BOOTING
        saving = self.sstate == _SAVING
        self.stimer = np.where(
            booting | saving, self.stimer - self.dt, self.stimer
        )
        boot_done = booting & (self.stimer <= 0.0)
        save_done = saving & (self.stimer <= 0.0)
        # BOOTING -> ON starts every placed VM; SAVING -> OFF counts a cycle.
        self.sstate = np.where(boot_done, _ON, self.sstate)
        self.sstate = np.where(save_done, _OFF, self.sstate)
        self.on_off += save_done.sum(axis=1)
        # Compute seconds produced this tick (after stepping, like scalar).
        duty = self.duty_deci / 10.0
        on = self.sstate == _ON
        contrib = self.placed * duty[:, None] * 1.0 * self.dt
        self.last_compute = np.where(on, contrib, 0.0).sum(axis=1)

    def _set_duty(self, mask: np.ndarray, deci: np.ndarray | int) -> None:
        """ServerRack.set_duty: all servers share the site duty here."""
        self.duty_deci = np.where(mask, deci, self.duty_deci)

    # ------------------------------------------------------------------
    # VM allocator (port of repro.cluster.allocator.NodeAllocator)
    # ------------------------------------------------------------------
    def _reconcile(self, mask: np.ndarray, target: np.ndarray) -> None:
        if not mask.any():
            return
        needed = np.where(target > 0, (target + self.srv_slots - 1) // self.srv_slots, 0)
        powered = (self.sstate == _ON) | (self.sstate == _BOOTING)
        cum_p = np.cumsum(powered, axis=1) - powered
        n_pow = powered.sum(axis=1, keepdims=True)
        cum_u = np.cumsum(~powered, axis=1) - ~powered
        rank = np.where(powered, cum_p, n_pow + cum_u)
        keep = rank < needed[:, None]
        drop = mask[:, None] & ~keep
        # Drop pass: strip VMs (one op each), then graceful power-off.
        self.vm_ops += np.where(drop, self.placed, 0).sum(axis=1)
        power_off = drop & ((self.sstate == _ON) | (self.sstate == _BOOTING))
        self.placed = np.where(drop, 0, self.placed)
        self.sstate = np.where(power_off, _SAVING, self.sstate)
        self.stimer = np.where(power_off, self.srv_save_s, self.stimer)
        # Keep pass in keep-list order (powered first, then rack order).
        order = np.argsort(rank, axis=1, kind="stable")
        rows = np.arange(self.n)
        remaining = np.where(mask, target, 0).copy()
        for pos in range(self.s):
            col = order[:, pos]
            act = mask & (pos < needed)
            st = self.sstate[rows, col]
            boot = act & (st == _OFF)
            self.sstate[rows[boot], col[boot]] = _BOOTING
            self.stimer[rows[boot], col[boot]] = self.srv_boot_s
            fit = act & (st != _SAVING)
            want = np.minimum(self.srv_slots, remaining)
            old = self.placed[rows, col]
            delta = np.abs(want - old)
            self.vm_ops += np.where(fit, delta, 0)
            new_placed = np.where(fit, want, old)
            self.placed[rows, col] = new_placed
            remaining = np.where(fit, remaining - want, remaining)

    def _set_target(self, mask: np.ndarray, target: np.ndarray) -> None:
        """NodeAllocator.set_target: one op + reconcile when it changes."""
        changed = mask & (target != self.alloc_target)
        if not changed.any():
            return
        self.vm_ops += changed
        self.alloc_target = np.where(changed, target, self.alloc_target)
        self._reconcile(changed, np.where(changed, target, 0))

    # ------------------------------------------------------------------
    # Relay transitions
    # ------------------------------------------------------------------
    def _transition(self, cells: np.ndarray, mode_code: int) -> None:
        """Controller.transition: mode change + relay attach bookkeeping."""
        bus_code = _BUS_FOR_MODE[mode_code]
        change = cells & (self.mode != mode_code)
        if not change.any():
            return
        ops = change & (self.bus != bus_code)
        self.switch_ops += ops.sum(axis=1)
        self.mode = np.where(change, mode_code, self.mode)
        self.bus = np.where(change, bus_code, self.bus)

    # ------------------------------------------------------------------
    # Sensing chain (ports of repro.power.{sensors,plc,modbus} + sensing)
    # ------------------------------------------------------------------
    def _sense(self, k: int) -> None:
        if k % self.noise_block == 0:
            self._refill_noise()
        slot = k % self.noise_block
        tv = self._terminal_voltage(self.y1, self.last_i)
        # Battery state is untouched until the bus pass, so this tick-start
        # voltage is also what the bus and charger would recompute.
        self._tick_tv = tv
        # Voltage transducer: noise, clip [0, 50], 12-bit quantisation.
        value = tv + 0.03 * self._blk_v[slot]
        value = np.where(value < 0.0, 0.0, value)
        value = np.where(value > 50.0, 50.0, value)
        code = np.rint((value - 0.0) / 50.0 * 4095)
        q_v = 0.0 + code * 50.0 / 4095
        # Current transducer: clip [-25, 25].
        value = self.last_i + 0.05 * self._blk_i[slot]
        value = np.where(value < -25.0, -25.0, value)
        value = np.where(value > 25.0, 25.0, value)
        code = np.rint((value - -25.0) / 50.0 * 4095)
        q_i = -25.0 + code * 50.0 / 4095
        # PLC register encode (x100 fixed point) and Modbus decode.
        self.sense_v = np.rint(q_v * 100.0) / 100.0
        self.sense_i = np.rint(q_i * 100.0) / 100.0
        # BatteryTelemetry._update_estimates
        current = self.sense_i
        delta_ah = current * self.dt / 3600.0
        est = self.est - delta_ah / self.kib_cap
        est = np.where(est < 0.0, 0.0, est)
        est = np.where(est > 1.0, 1.0, est)
        self.est = est
        discharging = current > 0.25
        self.sense_dis = np.where(
            discharging, self.sense_dis + delta_ah, self.sense_dis
        )
        resting = (current > -0.25) & (current < 0.25)
        self.rest_s = np.where(resting, self.rest_s + self.dt, 0.0)
        anchor = resting & (self.rest_s >= 300.0)
        if anchor.any():
            frac = (self.sense_v - self.emf_empty) / (
                self.emf_full - self.emf_empty
            )
            frac = np.minimum(np.maximum(frac, 0.0), 1.0)
            ocv = frac ** (1.0 / 0.75)
            self.est = np.where(anchor, 0.9 * self.est + 0.1 * ocv, self.est)

    def _update_ema(self, solar: np.ndarray) -> None:
        alpha = min(1.0, self.dt / 120.0)
        self.ema = self.ema + alpha * (solar - self.ema)
        alpha_slow = min(1.0, self.dt / (120.0 * 3.0))
        self.ema_slow = self.ema_slow + alpha_slow * (solar - self.ema_slow)

    # ------------------------------------------------------------------
    # Power bus (port of repro.power.bus.PowerBus.resolve)
    # ------------------------------------------------------------------
    def _converter_input(self, demand: np.ndarray) -> np.ndarray:
        """DCDCConverter.input_for, vectorized (demand is 0 or >= idle_w)."""
        load = np.minimum(demand / self.conv_rated, 1.2)
        ohmic = 0.02 * load * load * self.conv_rated
        losses = self.conv_fixed_loss + ohmic
        base = demand / np.where(demand > 0.0, demand + losses, 1.0)
        eff = np.minimum(base, self.conv_peak_eff)
        out = demand / np.where(demand > 0.0, eff, 1.0)
        return np.where(demand > 0.0, out, 0.0)

    def _bus_resolve(self, solar: np.ndarray, demand: np.ndarray) -> np.ndarray:
        """One tick of power flow; returns unserved_w per site.

        Fills the metrics scratch arrays with the BusReport fields the
        collector consumes.
        """
        n, b = self.n, self.b
        demand_bus = self._converter_input(demand)
        solar_to_load = np.minimum(solar, demand_bus)
        deficit = demand_bus - solar_to_load
        surplus = solar - solar_to_load

        touched = np.zeros((n, b), dtype=bool)
        on_load = self.bus == _BUS_LOAD
        battery_to_load = np.zeros(n, dtype=np.float64)
        dis_sites = (deficit > 0.0) & on_load.any(axis=1)
        if dis_sites.any():
            members = on_load & dis_sites[:, None]
            mdc = self._max_discharge_current()
            volts = self._tick_tv
            watts = mdc * volts
            total = np.where(members, watts, 0.0).sum(axis=1)
            feasible = dis_sites & (total > 0.0)
            dead = dis_sites & ~feasible
            if dead.any():
                self._idle(on_load & dead[:, None])
            if feasible.any():
                target = np.minimum(deficit, total)
                safe_total = np.where(feasible, total, 1.0)
                m = members & feasible[:, None]
                share_w = target[:, None] * (watts / safe_total[:, None])
                skip = m & ((share_w <= 0.0) | (volts <= 0.0))
                if skip.any():
                    self._idle(skip)
                take = m & ~skip
                safe_v = np.where(volts > 0.0, volts, 1.0)
                request = np.minimum(share_w / safe_v, mdc)
                got = self._apply_discharge(take, request, mdc)
                battery_to_load = np.where(take, got * volts, 0.0).sum(axis=1)
            touched |= members
        unserved = np.maximum(0.0, deficit - battery_to_load)

        # Charge path (SolarCharger.step across the charge bus).
        on_charge = self.bus == _BUS_CHARGE
        charge_sites = on_charge.any(axis=1)
        charge_power = np.zeros(n, dtype=np.float64)
        if charge_sites.any():
            charge_power = self._charger_step(on_charge, charge_sites, surplus)
            touched |= on_charge & charge_sites[:, None]
        curtailed = np.maximum(0.0, surplus - charge_power)

        # Float / idle pass over untouched units, bank order.  The column
        # loop is load-bearing: curtailed headroom drains sequentially, so
        # battery 2 only floats on what batteries 0-1 left over.
        standby = self.mode == _STANDBY
        for col in range(b):
            pending = ~touched[:, col]
            floatable = pending & standby[:, col] & (curtailed > 1.0)
            if floatable.any():
                # SolarCharger.float_step: idle first, then trickle charge.
                self._idle_col(col, floatable)
                self._kibam_apply_col(col, floatable, -self.float_amps * 0.5)
                tv_col = self._terminal_voltage(
                    self.y1[:, col], self.last_i[:, col]
                )
                used = self.float_amps * tv_col / self.chg_eff
                take = np.minimum(used, curtailed)
                curtailed = np.where(floatable, curtailed - take, curtailed)
                charge_power = np.where(
                    floatable, charge_power + take, charge_power
                )
            rest = pending & ~floatable
            if rest.any():
                self._idle_col(col, rest)

        self._metrics_demand = demand
        self._last_demand_bus = demand_bus
        self._rep_solar_to_load = solar_to_load
        self._rep_charge_power = charge_power
        self._rep_curtailed = curtailed
        return np.where(demand_bus > 0.0, unserved, 0.0)

    def _charger_step(
        self,
        on_charge: np.ndarray,
        charge_sites: np.ndarray,
        surplus: np.ndarray,
    ) -> np.ndarray:
        """SolarCharger.step: overhead gating + 4-round water-filling."""
        n, b = self.n, self.b
        remaining = np.where(
            charge_sites, (surplus * self.charge_cap) * self.chg_eff, 0.0
        )
        n_charging = on_charge.sum(axis=1)
        payable = np.minimum(
            n_charging, (remaining // self.chg_overhead).astype(np.int64)
        )
        rank = np.cumsum(on_charge, axis=1) - on_charge
        connected = on_charge & (rank < payable[:, None]) & charge_sites[:, None]
        dropped = on_charge & charge_sites[:, None] & ~connected
        if dropped.any():
            self._idle(dropped)
        any_conn = connected.any(axis=1)
        if not any_conn.any():
            return np.zeros(n, dtype=np.float64)
        n_conn = connected.sum(axis=1)
        overhead = self.chg_overhead * n_conn
        remaining = np.where(any_conn, remaining - overhead, remaining)
        used = np.where(any_conn, overhead, 0.0)

        # Charge-bus cells are disjoint from the load-bus cells the
        # discharge pass touched, so the tick-start voltage still holds.
        tv = self._tick_tv
        voltage = np.maximum(tv, self.emf_empty)
        soc = (self.y1 + self.y2) / self.kib_cap
        ceiling = self._acceptance_max_current(soc) * voltage
        granted = np.zeros((n, b), dtype=np.float64)
        active = connected.copy()
        for _ in range(4):
            n_act = active.sum(axis=1)
            alive = any_conn & (remaining > 1e-9) & (n_act > 0)
            if not alive.any():
                break
            share = np.where(alive, remaining / np.maximum(n_act, 1), 0.0)
            for col in range(b):
                m = alive & active[:, col]
                headroom = np.maximum(0.0, ceiling[:, col] - granted[:, col])
                grant = np.where(m, np.minimum(share, headroom), 0.0)
                granted[:, col] = granted[:, col] + grant
                remaining = remaining - grant
                stay = grant >= share - 1e-9
                active[:, col] = np.where(m, stay, active[:, col])

        for col in range(b):
            conn = connected[:, col]
            applied = granted[:, col] / voltage[:, col]
            landing = conn & (applied > 0.0)
            refused = conn & ~landing
            if refused.any():
                self._idle_col(col, refused)
            if landing.any():
                self._apply_charge_col(landing, col, applied)
                used = used + np.where(landing, granted[:, col], 0.0)

        return np.where(any_conn, used / self.chg_eff, 0.0)

    # ------------------------------------------------------------------
    # Plant coupling + workload (ports of system.PlantCoupler, workloads)
    # ------------------------------------------------------------------
    def _plant_step(self, k: int, solar: np.ndarray) -> None:
        demand = self._demand_w()
        unserved = self._bus_resolve(solar, demand)
        demand_bus = self._last_demand_bus
        threshold = np.maximum(
            self.shed_tol_w, self.shed_tol_frac * demand_bus
        )
        shed = unserved > threshold
        compute = self.last_compute
        if shed.any():
            self._emergency_shed(shed)
            compute = np.where(shed, 0.0, compute)
            # Metrics fall back to a fresh demand read post-shed (all OFF).
            self._metrics_demand = np.where(shed, 0.0, self._metrics_demand)
        self._workload_step(k, compute)

    def _emergency_shed(self, shed: np.ndarray) -> None:
        """ServerRack.emergency_shed + Workload.on_crash."""
        cells = shed[:, None] & (self.sstate != _OFF)
        count = cells.sum(axis=1)
        self.crashes += count
        self.on_off += count
        self.sstate = np.where(cells, _OFF, self.sstate)
        self.stimer = np.where(cells, 0.0, self.stimer)
        # VMs crash in place: they stay placed, none keep running.
        lost = self.head_done - self.head_ckpt
        self.processed = np.where(
            shed, np.maximum(0.0, self.processed - lost), self.processed
        )
        self.head_done = np.where(shed, self.head_ckpt, self.head_done)
        self.crash_count += shed

    def _workload_step(self, k: int, compute: np.ndarray) -> None:
        """Workload.step: drain budget through the head job (<=1 finish)."""
        t_next = k * self.dt + self.dt
        n_arr = self.n_by_tick[k]
        budget = compute * self.gb_rate
        has_head = self.head_idx < n_arr
        work = has_head & (budget > 1e-12)
        rem_head = np.maximum(0.0, self.job_size - self.head_done)
        used_a = np.where(work, np.minimum(budget, rem_head), 0.0)
        head_done = self.head_done + used_a
        finished = work & (
            np.maximum(0.0, self.job_size - head_done) <= 1e-12
        )
        self.head_done = np.where(work, head_done, self.head_done)
        if finished.any():
            arr = self.arr_t[np.minimum(self.head_idx, len(self.arr_t) - 1)]
            if self.workload_kind == "video":
                delay = np.maximum(0.0, t_next - arr - self.delay_offset)
            else:
                delay = np.maximum(0.0, (t_next - arr) - self.delay_offset)
            self.delay_sum = np.where(
                finished, self.delay_sum + delay, self.delay_sum
            )
            self.delay_count += finished
            if self.has_deadlines:
                deadline = self.arr_dl[
                    np.minimum(self.head_idx, len(self.arr_dl) - 1)
                ]
                counted = finished & ~np.isnan(deadline)
                self.dl_total += counted
                self.dl_miss += counted & (t_next > deadline)
            self.head_idx = np.where(finished, self.head_idx + 1, self.head_idx)
            self.head_done = np.where(finished, 0.0, self.head_done)
            self.head_ckpt = np.where(finished, 0.0, self.head_ckpt)
        # Leftover budget spills into the next job (cannot finish it).
        leftover = np.where(finished, budget - used_a, 0.0)
        spill = finished & (leftover > 1e-12) & (self.head_idx < n_arr)
        used_b = np.where(spill, np.minimum(leftover, self.job_size), 0.0)
        self.head_done = np.where(spill, used_b, self.head_done)
        done = used_a + used_b
        self.processed = self.processed + done
        # Periodic durable checkpoints (site-independent cadence).
        self._since_ckpt += self.dt
        if self._since_ckpt >= self.ckpt_interval:
            self._since_ckpt = 0.0
            self.head_ckpt = self.head_done.copy()

    def _checkpoint_all(self, mask: np.ndarray) -> None:
        self.head_ckpt = np.where(mask, self.head_done, self.head_ckpt)

    def _backlog_positive(self, k: int) -> np.ndarray:
        """Whether Workload.backlog_gb > 0 (any pending job remains)."""
        return self.head_idx < self.n_by_tick[k]

    def _backlog_at_control(self, k: int) -> np.ndarray:
        """Backlog as the controller sees it at tick k.

        Controllers run before the plant step, so tick k's arrivals have
        not been generated yet — only those through tick k-1 exist.
        """
        count = self.n_initial if k == 0 else int(self.n_by_tick[k - 1])
        return self.head_idx < count

    # ------------------------------------------------------------------
    # Metrics (port of repro.telemetry.metrics.MetricsCollector)
    # ------------------------------------------------------------------
    def _metrics_step(self, solar: np.ndarray) -> None:
        dt, dt_h = self.dt, self.dt_h
        self._elapsed += dt
        serving = self._running_count() > 0
        self.uptime_s = np.where(serving, self.uptime_s + dt, self.uptime_s)
        online = (self.mode == _STANDBY) | (self.mode == _DISCHARGING)
        stored = (self.y1 + self.y2) * self.nominal_v
        online_wh = np.where(online, stored, 0.0).sum(axis=1)
        self.stored_int = self.stored_int + online_wh * dt
        self.load_wh = self.load_wh + self._metrics_demand * dt_h
        # Server state only changes between the plant's demand read and
        # here via emergency shed, and shed sites have no running VMs —
        # stale power values there are masked out by `running`.
        power = self._last_power
        running = self.placed * (self.sstate == _ON) > 0
        effective = np.where(running, power, 0.0).sum(axis=1)
        self.eff_wh = self.eff_wh + effective * dt_h
        self.solar_wh = self.solar_wh + solar * dt_h
        self.used_wh = self.used_wh + (
            self._rep_solar_to_load + self._rep_charge_power
        ) * dt_h
        self.curt_wh = self.curt_wh + self._rep_curtailed * dt_h
        tv = self._terminal_voltage(self.y1, self.last_i)
        self.min_v = np.minimum(self.min_v, tv.min(axis=1))
        self._since_vsample += dt
        if self._since_vsample >= 60.0:
            self._since_vsample = 0.0
            self.vsamples.append(tv.sum(axis=1) / self.b)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(self) -> list[dict]:
        from repro.sim.fleet import controllers

        controllers.start(self)
        step_tick = self.step_tick
        for k in range(self.steps):
            step_tick(k)
        return self.summaries()

    def step_tick(self, k: int) -> None:
        from repro.sim.fleet import controllers

        solar = self.trace[:, k]
        # Component order mirrors the engine: source (solar column),
        # controller, rack, plant coupler, metrics.
        self._sense(k)
        self._update_ema(solar)
        if self.controller == "insure":
            controllers.insure_step(self, k)
            self._policy_step(k)
        else:
            self._policy_step(k)
            controllers.baseline_step(self, k)
        self._rack_step()
        self._plant_step(k, solar)
        self._metrics_step(solar)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def summaries(self) -> list[dict]:
        elapsed = self._elapsed
        n = self.n
        uptime_fraction = self.uptime_s / elapsed
        throughput = self.processed / (elapsed / 3600.0)
        mean_delay = self._mean_delay_minutes(elapsed)
        energy_avail = self.stored_int / elapsed
        # WearModel.projected_life_days, averaged over the bank.
        shelf = self.wear_design_days * 1.5
        rate = self.wear_wt / (elapsed / 86400.0)
        with np.errstate(divide="ignore"):
            days = np.where(
                self.wear_wt > 0.0,
                np.minimum(shelf, self.wear_lifetime / np.where(rate > 0, rate, 1.0)),
                shelf,
            )
        life = days.mean(axis=1)
        discharge_ah = np.zeros(n, dtype=np.float64)
        for col in range(self.b):
            discharge_ah = discharge_ah + self.wear_dis[:, col]
        perf_per_ah = np.where(
            discharge_ah > 0.0,
            self.processed / np.where(discharge_ah > 0.0, discharge_ah, 1.0),
            0.0,
        )
        tv = self._terminal_voltage(self.y1, self.last_i)
        end_v = np.zeros(n, dtype=np.float64)
        for col in range(self.b):
            end_v = end_v + tv[:, col]
        end_v = end_v / self.b
        if len(self.vsamples) > 1:
            samples = np.stack(self.vsamples)
            mean = samples.mean(axis=0)
            sigma = np.sqrt(((samples - mean) ** 2).mean(axis=0))
        else:
            sigma = np.zeros(n, dtype=np.float64)
        imbalance = self.wear_dis.max(axis=1) - self.wear_dis.min(axis=1)
        miss_rate = np.where(
            self.dl_total > 0,
            self.dl_miss / np.where(self.dl_total > 0, self.dl_total, 1),
            0.0,
        )
        out = []
        for i in range(n):
            out.append(
                {
                    "elapsed_s": float(elapsed),
                    "uptime_fraction": float(uptime_fraction[i]),
                    "throughput_gb_per_hour": float(throughput[i]),
                    "mean_delay_minutes": float(mean_delay[i]),
                    "processed_gb": float(self.processed[i]),
                    "energy_availability_wh": float(energy_avail[i]),
                    "projected_life_days": float(life[i]),
                    "perf_per_ah_gb": float(perf_per_ah[i]),
                    "load_energy_kwh": float(self.load_wh[i] / 1000.0),
                    "effective_energy_kwh": float(self.eff_wh[i] / 1000.0),
                    "solar_energy_kwh": float(self.solar_wh[i] / 1000.0),
                    "solar_used_kwh": float(self.used_wh[i] / 1000.0),
                    "curtailed_kwh": float(self.curt_wh[i] / 1000.0),
                    "min_battery_voltage": float(self.min_v[i]),
                    "end_battery_voltage": float(end_v[i]),
                    "battery_voltage_sigma": float(sigma[i]),
                    "total_discharge_ah": float(discharge_ah[i]),
                    "discharge_imbalance_ah": float(imbalance[i]),
                    "power_ctrl_times": int(self.switch_ops[i]),
                    "on_off_cycles": int(self.on_off[i]),
                    "vm_ctrl_times": int(self.vm_ops[i]),
                    "crash_count": int(self.crash_count[i]),
                    "dropped_gb": 0.0,
                    "deadline_miss_rate": float(miss_rate[i]),
                }
            )
        return out

    def _mean_delay_minutes(self, t_now: float) -> np.ndarray:
        """Workload.mean_delay_minutes with censored pending jobs."""
        total = self.delay_sum.copy()
        count = self.delay_count.astype(np.float64)
        j = len(self.arr_t)
        if j:
            accrued = t_now - self.arr_t - self.censor_offset
            positive = accrued > 0.0
            # Arrivals are non-decreasing, so positives form a prefix.
            cutoff = int(positive.sum())
            prefix = np.concatenate(
                ([0.0], np.cumsum(np.where(positive, accrued, 0.0)))
            )
            n_final = min(int(self.n_by_tick[-1]), j)
            hi = np.minimum(n_final, cutoff)
            lo = np.minimum(self.head_idx, hi)
            total = total + (prefix[hi] - prefix[lo])
            count = count + (hi - lo)
        safe = np.where(count > 0, count, 1.0)
        return np.where(count > 0, total / safe / 60.0, 0.0)
