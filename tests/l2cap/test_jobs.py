"""Tests for the job clustering (paper Tables I and III)."""

from __future__ import annotations

import pytest

from repro.l2cap.constants import CommandCode
from repro.l2cap.jobs import (
    ALL_COMMANDS,
    JOB_STATES,
    JOB_VALID_COMMANDS,
    Job,
    STATE_JOB,
    job_of,
)
from repro.l2cap.states import ALL_STATES, ChannelState


class TestTable1Clustering:
    def test_seven_jobs(self):
        assert len(Job) == 7

    def test_every_state_has_exactly_one_job(self):
        assert set(STATE_JOB) == set(ALL_STATES)

    def test_job_sizes_match_table1(self):
        sizes = {job.value: len(states) for job, states in JOB_STATES.items()}
        assert sizes == {
            "Closed": 1,
            "Connection": 2,
            "Creation": 2,
            "Configuration": 8,
            "Disconnection": 1,
            "Move": 4,
            "Open": 1,
        }

    def test_configuration_membership_matches_table1(self):
        assert JOB_STATES[Job.CONFIGURATION] == frozenset(
            {
                ChannelState.WAIT_CONFIG,
                ChannelState.WAIT_CONFIG_RSP,
                ChannelState.WAIT_CONFIG_REQ,
                ChannelState.WAIT_CONFIG_REQ_RSP,
                ChannelState.WAIT_SEND_CONFIG,
                ChannelState.WAIT_IND_FINAL_RSP,
                ChannelState.WAIT_FINAL_RSP,
                ChannelState.WAIT_CONTROL_IND,
            }
        )

    def test_move_membership_matches_table1(self):
        assert JOB_STATES[Job.MOVE] == frozenset(
            {
                ChannelState.WAIT_MOVE,
                ChannelState.WAIT_MOVE_RSP,
                ChannelState.WAIT_MOVE_CONFIRM,
                ChannelState.WAIT_CONFIRM_RSP,
            }
        )

    @pytest.mark.parametrize(
        "state,job",
        [
            (ChannelState.CLOSED, Job.CLOSED),
            (ChannelState.WAIT_CONNECT, Job.CONNECTION),
            (ChannelState.WAIT_CREATE_RSP, Job.CREATION),
            (ChannelState.WAIT_DISCONNECT, Job.DISCONNECTION),
            (ChannelState.OPEN, Job.OPEN),
        ],
    )
    def test_job_of(self, state, job):
        assert job_of(state) is job


class TestTable3ValidCommands:
    def test_closed_and_open_allow_all_commands(self):
        assert JOB_VALID_COMMANDS[Job.CLOSED] == ALL_COMMANDS
        assert JOB_VALID_COMMANDS[Job.OPEN] == ALL_COMMANDS
        assert len(ALL_COMMANDS) == 26

    def test_connection_job_commands(self):
        assert JOB_VALID_COMMANDS[Job.CONNECTION] == {
            CommandCode.CONNECTION_REQ,
            CommandCode.CONNECTION_RSP,
        }

    def test_creation_job_commands(self):
        assert JOB_VALID_COMMANDS[Job.CREATION] == {
            CommandCode.CREATE_CHANNEL_REQ,
            CommandCode.CREATE_CHANNEL_RSP,
        }

    def test_configuration_job_commands(self):
        assert JOB_VALID_COMMANDS[Job.CONFIGURATION] == {
            CommandCode.CONFIGURATION_REQ,
            CommandCode.CONFIGURATION_RSP,
        }

    def test_move_job_has_four_commands(self):
        assert JOB_VALID_COMMANDS[Job.MOVE] == {
            CommandCode.MOVE_CHANNEL_REQ,
            CommandCode.MOVE_CHANNEL_RSP,
            CommandCode.MOVE_CHANNEL_CONFIRMATION_REQ,
            CommandCode.MOVE_CHANNEL_CONFIRMATION_RSP,
        }

    def test_valid_commands_for_state_goes_through_job(self):
        assert JOB_VALID_COMMANDS[job_of(ChannelState.WAIT_SEND_CONFIG)] == {
            CommandCode.CONFIGURATION_REQ,
            CommandCode.CONFIGURATION_RSP,
        }
