"""CLI ↔ control-plane integration: ``repro jobs`` over live HTTP."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import ControlPlaneThread, ServiceConfig


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    config = ServiceConfig(
        data_dir=tmp_path_factory.mktemp("cli-service"),
        port=0,
        pool_workers=1,
    )
    with ControlPlaneThread(config) as live:
        yield live


def jobs_cmd(server, *argv: str) -> list[str]:
    return ["jobs", *argv[:1], "--url", server.base_url, *argv[1:]]


class TestJobsCli:
    def test_submit_wait_and_show(self, server, capsys):
        rc = main(
            jobs_cmd(
                server,
                "submit",
                "--tenant",
                "cli-alpha",
                "--profiles",
                "d1",
                "--budget",
                "40",
                "--wait",
                "--json",
            )
        )
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "finished"
        assert record["spec"]["profiles"] == ["D1"]

        rc = main(
            jobs_cmd(
                server,
                "show",
                "--tenant",
                "cli-alpha",
                record["job_id"],
                "--report",
            )
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert record["job_id"] in out
        assert '"campaigns"' in out

    def test_list_table_and_json(self, server, capsys):
        rc = main(jobs_cmd(server, "list", "--tenant", "cli-alpha"))
        assert rc == 0
        assert "finished" in capsys.readouterr().out

        rc = main(jobs_cmd(server, "list", "--tenant", "cli-alpha", "--json"))
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all(row["spec"]["tenant"] == "cli-alpha" for row in rows)

    def test_other_tenant_sees_nothing(self, server, capsys):
        rc = main(jobs_cmd(server, "list", "--tenant", "cli-beta"))
        assert rc == 0
        assert "no jobs for tenant" in capsys.readouterr().out

    def test_cancel_unknown_job_exits(self, server, capsys):
        with pytest.raises(SystemExit):
            main(
                jobs_cmd(
                    server, "cancel", "--tenant", "cli-alpha", "job-nope"
                )
            )

    def test_bad_submit_exits_with_message(self, server, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                jobs_cmd(
                    server,
                    "submit",
                    "--tenant",
                    "cli-alpha",
                    "--profiles",
                    "D99",
                )
            )
        assert "unknown profile" in str(excinfo.value)


class TestServeCli:
    def test_shard_deadline_sets_the_timeout_floor(self, tmp_path, monkeypatch):
        from repro.service import ControlPlane

        configs = []
        monkeypatch.setattr(
            ControlPlane, "run", lambda plane: configs.append(plane.config)
        )
        argv = ["serve", "--data-dir", str(tmp_path), "--port", "0"]
        assert main([*argv, "--shard-deadline", "120"]) == 0
        (config,) = configs
        assert config.shard_timeout == 120.0

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_shard_deadline_rejected(self, tmp_path, value):
        with pytest.raises(SystemExit, match="--shard-deadline must be > 0"):
            main(
                ["serve", "--data-dir", str(tmp_path), "--shard-deadline", value]
            )
