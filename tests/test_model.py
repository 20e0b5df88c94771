import copy
import hashlib
import pickle
import random

import pytest

from uilc.allocator import pick_victim
from uilc.model import (
    RET,
    MachineConfig,
    Model,
    ModelError,
    Reg,
    Slot,
    arg_homes,
    initial_model,
    make_config,
)


def test_locations_are_interned_values():
    assert Reg(1) is Reg(i=1) and Slot(2) is Slot(2)
    assert Reg(1) != Slot(1) and Reg(1) == Reg(1) and hash(Reg(3)) == hash(Reg(3))
    assert repr(Reg(1)) == "Reg(i=1)" and repr(Slot(0)) == "Slot(i=0)"
    assert (str(Reg(2)), str(Slot(2))) == ("r2", "fv2")
    for loc in (Reg(4), Slot(4)):
        assert pickle.loads(pickle.dumps(loc)) is loc
        assert copy.deepcopy(loc) is loc
        with pytest.raises(AttributeError):
            loc.i = 5
        with pytest.raises(AttributeError):
            del loc.i
    assert Reg(4).i == 4


def cfg_two_arg_regs():
    return make_config(4, max_arg_regs=2)


def test_initial_model_three_params_two_arg_regs():
    m = initial_model(("x", "y", "z"), cfg_two_arg_regs())
    assert m.regmap == {"x": 1, "y": 2, RET: 0}
    assert m.stackmap == {"z": 0}


def test_initial_model_no_params():
    m = initial_model((), make_config(4))
    assert m.regmap == {RET: 0}
    assert m.stackmap == {}


def test_initial_model_five_params_three_arg_regs():
    m = initial_model(("a", "b", "c", "d", "e"), make_config(8, max_arg_regs=3))
    assert m.regmap == {"a": 1, "b": 2, "c": 3, RET: 0}
    assert m.stackmap == {"d": 0, "e": 1}


def test_arg_homes_take_the_argument_registers_then_the_slots_from_base():
    cfg = make_config(8, max_arg_regs=3)
    assert arg_homes(0, cfg) == []
    assert arg_homes(2, cfg) == [Reg(1), Reg(2)]
    assert arg_homes(5, cfg) == [Reg(1), Reg(2), Reg(3), Slot(0), Slot(1)]
    # a caller keeping two slots of its own places them above those
    assert arg_homes(5, cfg, base=2) == [Reg(1), Reg(2), Reg(3), Slot(2), Slot(3)]
    # where a caller puts the arguments, with no slots of its own, is where
    # the callee finds its parameters
    params = ("a", "b", "c", "d", "e")
    m = initial_model(params, cfg)
    assert [m.whereis(v) for v in params] == arg_homes(len(params), cfg)


def test_initial_model_rejects_reserved_name():
    with pytest.raises(ModelError):
        initial_model(("x", RET), make_config(4))


def test_whereis_prefers_register():
    m = Model({"x": 1}, {"x": 0})
    assert m.whereis("x") == Reg(1)


def test_whereis_slot_only():
    m = Model({}, {"z": 1})
    assert m.whereis("z") == Slot(1)


def test_whereis_unbound_faults():
    with pytest.raises(ModelError):
        Model().whereis("q")


def test_drop_removes_both_homes():
    m = Model({"x": 1, "y": 2}, {"x": 0})
    d = m.drop({"x"})
    assert d.regmap == {"y": 2}
    assert d.stackmap == {}


def test_drop_nothing_is_identity():
    m = Model({"x": 1}, {})
    assert m.drop(set()) == m


def test_drop_unbound_name_is_noop():
    m = Model({"x": 1}, {})
    assert m.drop({"nosuch"}) == m


def test_dropped_name_faults_others_survive():
    m = Model({"x": 1, "y": 2}, {})
    d = m.drop({"x"})
    with pytest.raises(ModelError):
        d.whereis("x")
    assert d.whereis("y") == Reg(2)


def test_free_register_lowest_unused():
    cfg = make_config(3)
    assert Model({"x": 1, "y": 2}, {}).free_register(cfg) == 0
    assert Model({"x": 0, "y": 1, "z": 2}, {}).free_register(cfg) is None


def test_free_slot_first_gap():
    assert Model({}, {"x": 0, "z": 1}).free_slot() == 2
    assert Model({}, {"x": 0, "z": 2}).free_slot() == 1


@pytest.mark.parametrize("occupied", range(32))
def test_free_slot_matches_enumeration(occupied):
    # every subset of slots 0..4: first-fit equals the smallest absent index
    slots = [i for i in range(5) if occupied >> i & 1]
    m = Model({}, {f"v{i}": s for i, s in enumerate(slots)})
    expected = min(i for i in range(6) if i not in slots)
    assert m.free_slot() == expected


def test_bind_collision_faults():
    m = Model({"x": 1}, {})
    with pytest.raises(ModelError):
        m.bind_reg("y", 1)
    with pytest.raises(ModelError):
        Model({}, {"x": 3}).bind_slot("y", 3)


def test_rebinding_same_variable_moves_it():
    m = Model({"x": 1}, {}).bind_reg("x", 2)
    assert m.regmap == {"x": 2}


def test_rebinding_frees_the_old_location():
    m = Model({"x": 1}, {"x": 0}).bind_reg("x", 2).bind_slot("x", 3)
    assert m.free_register(make_config(4)) == 0
    assert m.free_slot() == 0
    m = m.bind_reg("y", 1).bind_slot("y", 0)  # no collision with x's old homes
    assert m.regmap == {"x": 2, "y": 1}
    assert m.stackmap == {"x": 3, "y": 0}
    m.check()


def test_public_constructor_rejects_shared_locations():
    with pytest.raises(ModelError, match="share a register"):
        Model({"x": 1, "y": 1}, {})
    with pytest.raises(ModelError, match="share a stack slot"):
        Model({}, {"x": 0, "y": 0})


def test_public_constructor_copies_its_maps():
    regmap = {"x": 1}
    m = Model(regmap, {})
    regmap["y"] = 2
    assert m.regmap == {"x": 1}


def _hand_built(regmap, stackmap, reg_owner, slot_owner):
    return Model(_state=(regmap, stackmap, reg_owner, slot_owner))


def test_check_rejects_hand_built_collisions():
    with pytest.raises(ModelError, match="share a register"):
        _hand_built({"x": 1, "y": 1}, {}, {1: "y"}, {}).check()
    with pytest.raises(ModelError, match="share a stack slot"):
        _hand_built({}, {"x": 0, "y": 0}, {}, {0: "y"}).check()
    with pytest.raises(ModelError, match="out of step"):
        _hand_built({"x": 1}, {}, {2: "x"}, {}).check()
    _hand_built({"x": 1}, {"x": 0}, {1: "x"}, {0: "x"}).check()


def test_unknown_names_leave_the_model_unchanged():
    m = Model({"x": 1}, {"y": 0})
    assert m.drop({"nosuch"}) is m
    assert m.unbind_reg("y") is m
    assert m.unbind_slot("x") is m
    assert m.unbind_reg("nosuch") == m
    assert m.unbind_slot("nosuch") == m


def test_injectivity_under_random_operation_sequences():
    rng = random.Random(1)
    names = [f"v{i}" for i in range(6)]
    cfg = make_config(4)
    moved = 0  # register residents rebound to another register
    for _ in range(300):
        m = Model()
        order: list[str] = []  # reference: register residents in bind order
        for _ in range(25):
            v = rng.choice(names)
            op = rng.randrange(6)
            try:
                if op == 0:
                    r, old = rng.randrange(4), m.reg_of(v)
                    m = m.bind_reg(v, r)
                    if old is not None and old != r:
                        moved += 1
                    if v in order:
                        order.remove(v)
                    order.append(v)
                elif op == 1:
                    m = m.bind_slot(v, rng.randrange(4))
                elif op in (2, 3):
                    m = m.drop({v}) if op == 2 else m.unbind_reg(v)
                    if v in order:
                        order.remove(v)
                elif op == 4:
                    m = m.unbind_slot(v)
                else:
                    m = m.bind_slot(v, m.free_slot())
            except ModelError:
                continue
            m.check()
            regs = list(m.regmap.values())
            slots = list(m.stackmap.values())
            assert len(set(regs)) == len(regs)
            assert len(set(slots)) == len(slots)
            # the owner index answers what a scan of the maps answers
            assert m.free_register(cfg) == next(
                (r for r in range(4) if r not in regs), None
            )
            assert m.free_slot() == min(i for i in range(len(slots) + 1) if i not in slots)
            assert m.register_residents() == sorted(m.regmap.items(), key=lambda kv: kv[1])
            # recency law: lifo evicts the latest bind and fifo the earliest;
            # with that one protected, the next in line
            assert set(order) == set(m.regmap)
            if order:
                assert pick_victim(m, frozenset(), {}, "lifo") == order[-1]
                assert pick_victim(m, frozenset(), {}, "fifo") == order[0]
            if len(order) > 1:
                assert pick_victim(m, frozenset({order[-1]}), {}, "lifo") == order[-2]
                assert pick_victim(m, frozenset({order[0]}), {}, "fifo") == order[1]
    assert moved > 50


def test_free_register_never_bound():
    rng = random.Random(2)
    cfg = make_config(4)
    for _ in range(200):
        m = Model()
        for v in "abcde":
            if rng.random() < 0.6:
                r = m.free_register(cfg)
                if r is not None:
                    m = m.bind_reg(v, r)
            if rng.random() < 0.4:
                m = m.bind_slot(v, m.free_slot())
        r = m.free_register(cfg)
        assert r is None or r not in m.regmap.values()
        assert m.free_slot() not in m.stackmap.values()


def test_dump_notation():
    m = Model({"x": 1, "y": 2, RET: 0}, {"z": 0})
    assert m.dump() == "{RET:r0, x:r1, y:r2}{z:fv0}"
    assert Model().dump() == "{}{}"


def test_equality_ignores_binding_order():
    a = Model().bind_reg("x", 0).bind_reg("y", 1)
    b = Model().bind_reg("y", 1).bind_reg("x", 0)
    assert a == b


def test_multi_homing_allowed():
    m = Model().bind_reg("x", 1).bind_slot("x", 0)
    assert m.reg_of("x") == 1
    assert m.slot_of("x") == 0


def test_config_validation():
    # the convention is derived from the register count: none of it can be set
    for derived in ("arg_regs", "ret_addr_reg", "ret_val_reg", "callee_saved"):
        with pytest.raises(TypeError):
            MachineConfig(registers=8, **{derived: (1,)})
    with pytest.raises(ValueError):
        make_config(0)
    cfg = make_config(1)
    assert cfg.arg_regs == ()
    # a register left over beside fewer arguments is still not callee-saved at R<=4
    assert make_config(4, max_arg_regs=2).callee_saved == ()


@pytest.mark.parametrize("registers", range(1, 18))
def test_callee_saved_registers_carry_nothing_of_the_call(registers):
    for max_arg_regs in range(5):
        cfg = make_config(registers, max_arg_regs=max_arg_regs)
        carried = {cfg.ret_addr_reg, cfg.ret_val_reg, *cfg.arg_regs}
        assert cfg.ret_addr_reg not in cfg.arg_regs, max_arg_regs
        assert not carried & set(cfg.callee_saved), max_arg_regs
        assert all(0 <= r < registers for r in carried | set(cfg.callee_saved)), max_arg_regs
        if registers <= 4:
            assert cfg.callee_saved == (), max_arg_regs
        elif cfg.callee_saved:
            # the highest registers the call leaves alone
            saved = cfg.callee_saved
            assert saved == tuple(range(registers - len(saved), registers)), max_arg_regs
            assert saved[0] > max(carried) and len(saved) <= 5, max_arg_regs
    cfg = make_config(registers)
    if registers > 4:
        assert cfg.callee_saved
        # from R=7 on r4 stays caller-saved as a scratch register
        assert (4 in cfg.callee_saved) == (registers in (5, 6))


# Digest of the calling convention of `make_config(r, max_arg_regs=k)` for
# r = 1..17 and k = 0..4: (r, k, arg_regs, ret_addr_reg, ret_val_reg,
# callee_saved).  The convention is derived from these two values alone,
# so a change to its rules must change this pin and say why.
CONVENTION_SHA256 = "a1ac2226067a9339e290fa6ebd29f3620ad1aa4e6a5814d3071047542f9a658e"


def test_calling_convention_is_pinned():
    digest = hashlib.sha256()
    for r in range(1, 18):
        for k in range(5):
            cfg = make_config(r, max_arg_regs=k)
            fact = (r, k, cfg.arg_regs, cfg.ret_addr_reg, cfg.ret_val_reg, cfg.callee_saved)
            digest.update(repr(fact).encode())
    assert digest.hexdigest() == CONVENTION_SHA256
