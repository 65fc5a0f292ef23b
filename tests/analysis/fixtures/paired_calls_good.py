"""Fixed paired-calls fixture: every opener closes from a finally."""


def drive(acc, requests):
    acc.begin_staging()
    try:
        for keys, budget in requests:
            acc.stage_charge(keys, budget)
    finally:
        acc.commit_staged()


def durable_hour(wal, record, digest):
    wal.begin_hour()
    try:
        wal.append_hour(record)
        wal.commit_hour(record["hour_index"], digest)
    finally:
        if wal.hour_open:
            wal.abort_hour()
