"""Vectorized ports of the InSURE and baseline power managers.

Each function here is a mask-based translation of one scalar control
routine (`repro.core.energy_manager.InsureController`,
`repro.core.baseline.BaselineController` and the shared
`repro.core.controller_base.PowerManager` helpers).  The control cadence
(30 s TPM / 300 s SPM / 30 s baseline period) is global — it depends only
on dt — so it lives in plain Python counters on the batch; everything a
site can diverge on (targets, holdoffs, trip latches, battery modes) is a
`(n_sites,)` or `(n_sites, n_batteries)` array updated under boolean
masks.

Ordering contract: statements execute in the exact order of the scalar
controller so that every sensed read (rack demand, SoC estimates, solar
EMA) observes the same intermediate state the scalar controller would.
"""

from __future__ import annotations

import numpy as np

from repro.core.baseline import BaselineParams
from repro.core.energy_manager import InsureParams
from repro.sim.fleet.kernel import (
    _BOOTING,
    _BUS_CHARGE,
    _BUS_LOAD,
    _BUS_OFFLINE,
    _CHARGING,
    _DISCHARGING,
    _OFFLINE,
    _ON,
    _SAVING,
    _STANDBY,
)

# --- Controller defaults, read from the scalar parameter classes -------
_INSURE = InsureParams()
_TEMPORAL = _INSURE.temporal
_SPATIAL = _INSURE.spatial
_BASELINE = BaselineParams()

TPM_INTERVAL_S = _INSURE.tpm_interval_s
SPM_INTERVAL_S = _INSURE.spm_interval_s
USABLE_MARGIN = _INSURE.usable_margin
SOC_FLOOR = _TEMPORAL.soc_floor
CAP_C_RATE = _TEMPORAL.cap_c_rate
RELAX_FRACTION = _TEMPORAL.relax_fraction
VM_STEP = _TEMPORAL.vm_step
DUTY_MIN_DECI = round(_TEMPORAL.duty_min * 10)  # duty in tenths
MIN_RESTART_VMS = _INSURE.min_restart_vms
MIN_ONLINE_UNITS = _INSURE.min_online_units
SOLAR_MARGIN = _INSURE.solar_margin
UPSCALE_HOLDOFF_S = _INSURE.upscale_holdoff_s
DOWNSCALE_HOLDOFF_S = _INSURE.downscale_holdoff_s
BATCH_RECONFIG_HOLDOFF_S = _INSURE.batch_reconfig_holdoff_s
CRASH_BACKOFF_S = _INSURE.crash_backoff_s
LIFETIME_AH = _SPATIAL.lifetime_ah
DESIGN_LIFE_DAYS = _SPATIAL.design_life_days
CHARGE_TO_SOC = _SPATIAL.charge_to_soc
PEAK_CHARGE_POWER_W = _SPATIAL.peak_charge_power_w
MIN_CHARGE_SURPLUS_W = _SPATIAL.min_charge_surplus_w
ELASTIC_STEP = _SPATIAL.elastic_step

BL_CONTROL_INTERVAL_S = _BASELINE.control_interval_s
BL_PROTECT_MARGIN_V = _BASELINE.protect_margin_v
BL_SOC_FLOOR = _BASELINE.soc_floor
BL_CHARGE_TO_SOC = _BASELINE.charge_to_soc
BL_BANK_POWER_PER_UNIT_W = _BASELINE.bank_power_per_unit_w
BL_UPSCALE_HOLDOFF_S = _BASELINE.upscale_holdoff_s
BL_START_MIN_SOC = _BASELINE.start_min_soc


def start(batch) -> None:
    """Controller.start(): initial battery modes + direct relay attach.

    start() drives ``set_mode`` + ``switchnet.attach`` without the
    same-mode guard of ``transition``, so a switch operation is counted
    exactly when the relay (bus) state changes from the open/open reset
    state.
    """
    if batch.controller == "insure":
        high = batch.est >= CHARGE_TO_SOC
        new_mode = np.where(high, _STANDBY, _OFFLINE).astype(np.int8)
        new_bus = np.where(high, _BUS_LOAD, _BUS_OFFLINE).astype(np.int8)
    else:
        online = batch.est.min(axis=1) >= BL_START_MIN_SOC
        batch.buffer_online = online.copy()
        cols = online[:, None] & np.ones((1, batch.b), dtype=bool)
        new_mode = np.where(cols, _STANDBY, _CHARGING).astype(np.int8)
        new_bus = np.where(cols, _BUS_LOAD, _BUS_CHARGE).astype(np.int8)
    batch.switch_ops += (new_bus != batch.bus).sum(axis=1)
    batch.mode = new_mode
    batch.bus = new_bus


# ======================================================================
# InSURE
# ======================================================================
def insure_step(batch, k: int) -> None:
    dt = batch.dt
    t = k * dt
    batch._tpm_elapsed += dt
    if batch._tpm_elapsed >= TPM_INTERVAL_S:
        batch._tpm_elapsed = 0.0
        _insure_temporal(batch, t)
    batch._spm_elapsed += dt
    if batch._spm_elapsed >= SPM_INTERVAL_S:
        batch._spm_elapsed = 0.0
        _insure_spatial(batch, t, k)


def _online_mask(batch) -> np.ndarray:
    return (batch.mode == _STANDBY) | (batch.mode == _DISCHARGING)


def _usable_count(batch, floor: float) -> np.ndarray:
    usable = _online_mask(batch) & (batch.est > floor)
    return usable.sum(axis=1)


def _sizing_target(batch) -> np.ndarray:
    """InsureController._sizing_target on the slow EMA + safe battery W."""
    per_unit_w = CAP_C_RATE * batch.kib_cap * batch.nominal_v
    safe_w = _usable_count(batch, SOC_FLOOR + USABLE_MARGIN) * per_unit_w
    supportable = batch.ema_slow * SOLAR_MARGIN + safe_w
    vms = (supportable // batch.per_vm_w).astype(np.int64)
    return np.maximum(0, np.minimum(batch.preferred_vms, vms))


def _checkpoint_and_stop(batch, mask: np.ndarray) -> None:
    """PowerManager.checkpoint_and_stop for the masked sites."""
    batch._checkpoint_all(mask)
    batch._set_target(mask, np.zeros(batch.n, dtype=np.int64))
    # rack.graceful_stop_all: power_off any server reconcile left running.
    cells = mask[:, None] & ((batch.sstate == _ON) | (batch.sstate == _BOOTING))
    batch.sstate = np.where(cells, _SAVING, batch.sstate)
    batch.stimer = np.where(cells, batch.srv_save_s, batch.stimer)


def _insure_temporal(batch, t: float) -> None:
    n = batch.n
    batch.since_up += TPM_INTERVAL_S
    batch.since_down += TPM_INTERVAL_S
    batch.since_batch += TPM_INTERVAL_S
    batch.since_crash += TPM_INTERVAL_S

    # Crash backoff: an uncontrolled power loss zeroes the target.
    crashed = batch.crashes > batch.seen_crashes
    if crashed.any():
        batch.seen_crashes = np.where(crashed, batch.crashes, batch.seen_crashes)
        batch.since_crash = np.where(crashed, 0.0, batch.since_crash)
        batch.vm_target = np.where(crashed, 0, batch.vm_target)
        batch._set_target(crashed, np.zeros(n, dtype=np.int64))

    _ensure_online_reserve(batch)

    online = _online_mask(batch)
    n_online = online.sum(axis=1)
    demand = batch._demand_w()
    battery_needed = demand > batch.ema * 1.02

    # TemporalPolicy.evaluate over sensed aggregates.
    total_dis = np.where(
        online, np.maximum(0.0, batch.sense_i), 0.0
    ).sum(axis=1)
    min_soc = np.where(online, batch.est, np.inf).min(axis=1)
    min_soc = np.where(n_online > 0, min_soc, 0.0)
    cap = CAP_C_RATE * batch.kib_cap * n_online
    act_ckpt = (n_online > 0) & battery_needed & (min_soc <= SOC_FLOOR)
    act_cap = ~act_ckpt & (n_online > 0) & (total_dis > cap)
    act_relax = (
        ~act_ckpt
        & ~act_cap
        & ((total_dis < cap * RELAX_FRACTION) | ~battery_needed)
    )

    do_ckpt = act_ckpt & ~batch.protect.any(axis=1)
    if do_ckpt.any():
        _checkpoint_and_stop(batch, do_ckpt)
        batch.vm_target = np.where(do_ckpt, 0, batch.vm_target)
        # Cabinets stay on the load bus until the save completes.
        batch.protect |= do_ckpt[:, None] & online
    _match_load(batch, ~act_ckpt, act_cap, act_relax)
    _drain_protect(batch)

    # Mode bookkeeping (transitions 3/6/7) on the *current* online set.
    fresh_online = _online_mask(batch)
    batch._transition(
        fresh_online & (batch.mode == _STANDBY) & battery_needed[:, None],
        _DISCHARGING,
    )
    batch._transition(
        fresh_online & (batch.mode == _DISCHARGING) & ~battery_needed[:, None],
        _STANDBY,
    )
    _maybe_restart(batch)
    mismatch = batch._running_count() != batch.alloc_target
    if mismatch.any():
        batch._reconcile(mismatch, batch.alloc_target)


def _ensure_online_reserve(batch) -> None:
    """Keep min_online_units usable cabinets on the load bus."""
    floor = SOC_FLOOR + USABLE_MARGIN
    n_usable = _usable_count(batch, floor)
    demand = batch._demand_w()
    want = np.maximum(
        MIN_ONLINE_UNITS,
        np.minimum(batch.b, (demand // 500.0).astype(np.int64) + 1),
    )
    need = n_usable < want
    if not need.any():
        return
    candidates = (
        ((batch.mode == _OFFLINE) | (batch.mode == _CHARGING))
        & (batch.est > floor + USABLE_MARGIN)
    )
    # Highest SoC first, stable (scalar sort(reverse=True) is stable too).
    key = np.where(candidates, -batch.est, np.inf)
    order = np.argsort(key, axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(batch.b), order.shape), axis=1
    )
    deficit = want - n_usable
    take = need[:, None] & candidates & (rank < deficit[:, None])
    was_charging = take & (batch.mode == _CHARGING)
    was_offline = take & (batch.mode == _OFFLINE)
    batch._transition(was_charging, _STANDBY)
    batch._transition(was_offline, _CHARGING)
    batch._transition(was_offline, _STANDBY)


def _match_load(batch, mask: np.ndarray, act_cap: np.ndarray,
                act_relax: np.ndarray) -> None:
    """Power-aware load matching via duty cycle or VM scaling."""
    cap_target = _sizing_target(batch)

    if batch.actuation == "duty":
        # Duty lives in exact tenths; ±1 deci replicates round(d±0.1, 3).
        new_deci = batch.duty_deci.copy()
        new_deci = np.where(
            act_cap, np.maximum(DUTY_MIN_DECI, batch.duty_deci - 1), new_deci
        )
        new_deci = np.where(
            act_relax, np.minimum(10, batch.duty_deci + 1), new_deci
        )
        changed = mask & (new_deci != batch.duty_deci)
        batch.duty_deci = np.where(changed, new_deci, batch.duty_deci)
        batch_up = (
            mask
            & act_relax
            & (batch.duty_deci >= 10)
            & (cap_target >= batch.vm_target + VM_STEP)
            & (batch.since_batch >= BATCH_RECONFIG_HOLDOFF_S)
        )
        if batch_up.any():
            batch.since_batch = np.where(batch_up, 0.0, batch.since_batch)
            batch.vm_target = np.where(batch_up, cap_target, batch.vm_target)
            batch._set_target(batch_up, cap_target)
        batch_down = (
            mask
            & act_cap
            & (batch.duty_deci <= DUTY_MIN_DECI)
            & (batch.vm_target > VM_STEP)
            & (batch.since_batch >= BATCH_RECONFIG_HOLDOFF_S)
        )
        if batch_down.any():
            batch.since_batch = np.where(batch_down, 0.0, batch.since_batch)
            shrunk = batch.vm_target - VM_STEP
            batch.vm_target = np.where(batch_down, shrunk, batch.vm_target)
            batch._set_target(batch_down, shrunk)
    else:
        new_target = batch.vm_target.copy()
        new_target = np.where(
            act_cap, np.maximum(0, batch.vm_target - VM_STEP), new_target
        )
        new_target = np.where(
            act_relax,
            np.minimum(batch.preferred_vms, batch.vm_target + VM_STEP),
            new_target,
        )
        new_target = np.minimum(new_target, np.maximum(cap_target, 0))
        up = mask & (new_target > batch.vm_target)
        up_blocked = up & (
            (batch.since_up < UPSCALE_HOLDOFF_S)
            | (batch.since_crash < CRASH_BACKOFF_S)
        )
        batch.since_up = np.where(up & ~up_blocked, 0.0, batch.since_up)
        down = mask & (new_target < batch.vm_target) & ~act_cap
        down_blocked = down & (batch.since_down < DOWNSCALE_HOLDOFF_S)
        batch.since_down = np.where(
            down & ~down_blocked, 0.0, batch.since_down
        )
        apply = (
            mask & ~up_blocked & ~down_blocked
            & (new_target != batch.vm_target)
        )
        if apply.any():
            batch.vm_target = np.where(apply, new_target, batch.vm_target)
            batch._set_target(apply, new_target)


def _drain_protect(batch) -> None:
    """Deferred protective switch-outs once the servers are off."""
    pending = batch.protect.any(axis=1)
    if not pending.any():
        return
    ready = pending & ~batch._active_servers()
    if not ready.any():
        return
    cells = (
        ready[:, None]
        & batch.protect
        & ((batch.mode == _STANDBY) | (batch.mode == _DISCHARGING))
    )
    batch._transition(cells, _OFFLINE)
    batch.protect &= ~ready[:, None]


def _maybe_restart(batch) -> None:
    """Restart the cluster after a protective stop, once safe."""
    idle = (batch.vm_target <= 0) & ~batch._active_servers()
    ready = idle & (batch.since_crash >= CRASH_BACKOFF_S)
    ready &= _usable_count(batch, SOC_FLOOR + USABLE_MARGIN) >= MIN_ONLINE_UNITS
    if not ready.any():
        return
    target = _sizing_target(batch)
    go = ready & (target >= MIN_RESTART_VMS)
    if go.any():
        batch.vm_target = np.where(go, target, batch.vm_target)
        batch.duty_deci = np.where(go, 10, batch.duty_deci)
        batch._set_target(go, target)


def _insure_spatial(batch, t: float, k: int) -> None:
    """SPM: offline screening (Fig. 9) + charge batch sizing (Fig. 10)."""
    offline = batch.mode == _OFFLINE
    charging = batch.mode == _CHARGING
    demand = batch._demand_w()
    surplus = np.maximum(0.0, batch.ema - demand)
    usable_any = (
        _online_mask(batch) & (batch.est > SOC_FLOOR)
    ).any(axis=1)
    starving = batch._backlog_at_control(k) & ~usable_any

    daily_budget = LIFETIME_AH / DESIGN_LIFE_DAYS
    prorated = LIFETIME_AH * (t / 86400.0) / DESIGN_LIFE_DAYS
    threshold = prorated + batch.elastic_bonus
    eligible = offline & (batch.sense_dis < threshold[:, None])
    overused = offline & ~eligible
    # Elastic relaxation: starved sites with only over-used cabinets.
    relax = ~eligible.any(axis=1) & overused.any(axis=1) & starving
    if relax.any():
        batch.elastic_bonus = np.where(
            relax,
            batch.elastic_bonus + ELASTIC_STEP * daily_budget,
            batch.elastic_bonus,
        )
        threshold = np.where(relax, prorated + batch.elastic_bonus, threshold)
        eligible = offline & (batch.sense_dis < threshold[:, None])

    with np.errstate(invalid="ignore"):
        n_batch = np.where(
            surplus < MIN_CHARGE_SURPLUS_W,
            0,
            np.maximum(
                1,
                np.floor(surplus / PEAK_CHARGE_POWER_W).astype(np.int64),
            ),
        )
    slots = np.maximum(0, n_batch - charging.sum(axis=1))
    # Priority (lowest usage, then lowest SoC), stable like list.sort.
    key_soc = np.where(eligible, batch.est, np.inf)
    key_dis = np.where(eligible, batch.sense_dis, np.inf)
    order = np.lexsort((key_soc, key_dis), axis=1)
    rank = np.empty_like(order)
    np.put_along_axis(
        rank, order, np.broadcast_to(np.arange(batch.b), order.shape), axis=1
    )
    picked = eligible & (rank < slots[:, None])
    batch._transition(picked, _CHARGING)
    batch._transition(charging & (batch.est >= CHARGE_TO_SOC), _STANDBY)

    # Sunset release: nothing to charge from — free usable cabinets.
    sunset = surplus < MIN_CHARGE_SURPLUS_W
    if sunset.any():
        floor = SOC_FLOOR + 2 * USABLE_MARGIN
        batch._transition(
            sunset[:, None] & (batch.mode == _CHARGING) & (batch.est > floor),
            _STANDBY,
        )


# ======================================================================
# Baseline
# ======================================================================
def baseline_step(batch, k: int) -> None:
    dt = batch.dt
    batch._ctl_elapsed += dt
    if batch._ctl_elapsed < BL_CONTROL_INTERVAL_S:
        return
    batch._ctl_elapsed = 0.0
    batch.since_up += BL_CONTROL_INTERVAL_S
    online_sites = batch.buffer_online.copy()
    _baseline_online(batch, online_sites)
    _baseline_charging(batch, ~online_sites)
    mismatch = batch._running_count() != batch.alloc_target
    if mismatch.any():
        batch._reconcile(mismatch, batch.alloc_target)


def _baseline_retarget(batch, mask: np.ndarray, target: np.ndarray) -> None:
    """BaselineController._retarget: damped upscaling only."""
    up = mask & (target > batch.vm_target)
    up_blocked = up & (batch.since_up < BL_UPSCALE_HOLDOFF_S)
    batch.since_up = np.where(up & ~up_blocked, 0.0, batch.since_up)
    apply = mask & ~up_blocked & (target != batch.vm_target)
    if apply.any():
        batch.vm_target = np.where(apply, target, batch.vm_target)
        batch._set_target(apply, target)


def _baseline_online(batch, mask: np.ndarray) -> None:
    if not mask.any():
        return
    cutoff = batch.v_cutoff + BL_PROTECT_MARGIN_V
    unit_trip = (batch.sense_v <= cutoff) & (batch.sense_i > 0.5)
    tripping = unit_trip.any(axis=1) | (batch.est.min(axis=1) <= BL_SOC_FLOOR)
    trip = mask & (tripping | batch.trip_pending)
    first = trip & ~batch.trip_pending
    if first.any():
        _checkpoint_and_stop(batch, first)
        batch.vm_target = np.where(first, 0, batch.vm_target)
        batch.trip_pending |= first
    # The pull waits until the save completes; then the whole (unified)
    # bank goes offline then onto the charge bus — two relay ops per unit.
    pull = trip & ~batch._active_servers()
    if pull.any():
        cells = pull[:, None] & np.ones((1, batch.b), dtype=bool)
        batch._transition(cells, _OFFLINE)
        batch._transition(cells, _CHARGING)
        batch.buffer_online &= ~pull
        batch.trip_pending &= ~pull

    serve = mask & ~trip
    if not serve.any():
        return
    bank_w = BL_BANK_POWER_PER_UNIT_W * batch.b
    supportable = batch.ema + bank_w
    vms = (supportable // batch.per_vm_w).astype(np.int64)
    target = np.maximum(0, np.minimum(batch.preferred_vms, vms))
    _baseline_retarget(batch, serve, target)

    battery_needed = batch._demand_w() > batch.ema * 1.02
    batch._transition(
        serve[:, None] & (batch.mode == _STANDBY) & battery_needed[:, None],
        _DISCHARGING,
    )
    batch._transition(
        serve[:, None] & (batch.mode == _DISCHARGING) & ~battery_needed[:, None],
        _STANDBY,
    )


def _baseline_charging(batch, mask: np.ndarray) -> None:
    if not mask.any():
        return
    _baseline_retarget(batch, mask, np.zeros(batch.n, dtype=np.int64))
    charged = mask & (batch.est >= BL_CHARGE_TO_SOC).all(axis=1)
    if charged.any():
        cells = charged[:, None] & np.ones((1, batch.b), dtype=bool)
        batch._transition(cells, _STANDBY)
        batch.buffer_online |= charged
